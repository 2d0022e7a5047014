#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"

namespace fp {

namespace {
void check_2d(const Tensor& t, const char* what) {
  if (t.ndim() != 2) throw std::invalid_argument(std::string(what) + ": want 2-D");
}
}  // namespace

void gemm_reference(bool transpose_a, bool transpose_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha, const float* a,
                    const float* b, float beta, float* c) {
  // Degenerate-dim contract, identical to the blocked gemm (and qgemm): an
  // empty output is a no-op, an empty reduction applies beta and skips the
  // product entirely (so alpha == 0 never reads A/B — no NaN propagation).
  if (m <= 0 || n <= 0) return;
  // Scale / clear the destination first so the kernels can accumulate.
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (k <= 0 || alpha == 0.0f) return;
  if (!transpose_a && !transpose_b) {
    // A[m,k] * B[k,n]: i-k-j streams rows of B — cache friendly.
    for (std::int64_t i = 0; i < m; ++i) {
      float* ci = c + i * n;
      const float* ai = a + i * k;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = alpha * ai[p];
        const float* bp = b + p * n;
        for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  } else if (transpose_a && !transpose_b) {
    // A stored [k,m]; op(A)[i,p] = A[p,i].
    for (std::int64_t p = 0; p < k; ++p) {
      const float* ap = a + p * m;
      const float* bp = b + p * n;
      for (std::int64_t i = 0; i < m; ++i) {
        const float av = alpha * ap[i];
        float* ci = c + i * n;
        for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
  } else if (!transpose_a && transpose_b) {
    // B stored [n,k]; op(B)[p,j] = B[j,p]. Dot products of rows — good locality.
    for (std::int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * k;
      float* ci = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* bj = b + j * k;
        double acc = 0.0;
        for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(ai[p]) * bj[p];
        ci[j] += alpha * static_cast<float>(acc);
      }
    }
  } else {
    // Rare in this library; do it the simple way.
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::int64_t p = 0; p < k; ++p)
          acc += static_cast<double>(a[p * m + i]) * b[j * k + p];
        c[i * n + j] += alpha * static_cast<float>(acc);
      }
  }
}

namespace {

/// [lo, hi): the output positions o in [0, out) whose input index
/// o * stride + offset lies inside [0, in).
struct Span {
  std::int64_t lo, hi;
};

Span valid_span(std::int64_t offset, std::int64_t stride, std::int64_t in,
                std::int64_t out) {
  const std::int64_t lo = offset >= 0 ? 0 : (stride - 1 - offset) / stride;
  const std::int64_t hi =
      std::min(out, in > offset ? (in - offset + stride - 1) / stride : 0);
  return {std::min(lo, hi), hi};
}

/// One kernel tap (kh, kw): the input offset of output (0, 0) and the output
/// rows/columns whose input lies inside the plane.
struct Tap {
  std::int64_t dy, dx;
  Span ys, xs;
};

/// What every plane of one call shares, computed once so that the span
/// loops divide nothing.
struct SpanPlan {
  std::int64_t in_w, oh, ow, ohow, stride;
  bool same;              ///< stride 1 and the output extent is the input's
  std::vector<Tap> taps;  ///< row-major over (kh, kw)

  explicit SpanPlan(const Conv2dGeometry& g)
      : in_w(g.in_w),
        oh(g.out_h()),
        ow(g.out_w()),
        ohow(oh * ow),
        stride(g.stride),
        same(g.stride == 1 && oh == g.in_h && ow == g.in_w) {
    for (std::int64_t kh = 0; kh < g.kernel; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel; ++kw) {
        const std::int64_t dy = kh - g.padding, dx = kw - g.padding;
        taps.push_back({dy, dx, valid_span(dy, stride, g.in_h, oh),
                        valid_span(dx, stride, g.in_w, ow)});
      }
  }
};

void zero(float* dst, std::int64_t begin, std::int64_t end) {
  if (end > begin)
    std::memset(dst + begin, 0, static_cast<std::size_t>(end - begin) * sizeof(float));
}

/// Copies count > 0 floats; callers test the count before forming pointers.
void copy(const float* src, std::int64_t count, float* dst) {
  std::memcpy(dst, src, static_cast<std::size_t>(count) * sizeof(float));
}

/// Zeroes the output columns [0, xs.lo) and [xs.hi, ow) of rows ys: one
/// strided store per edge pixel (few, |dx| <= padding), no library call.
void zero_edge_columns(const SpanPlan& p, const Tap& t, float* dst) {
  const auto zero_column = [&](std::int64_t x) {
    for (std::int64_t y = t.ys.lo; y < t.ys.hi; ++y) dst[y * p.ow + x] = 0.0f;
  };
  for (std::int64_t x = 0; x < t.xs.lo; ++x) zero_column(x);
  for (std::int64_t x = t.xs.hi; x < p.ow; ++x) zero_column(x);
}

/// dst[y*ow + x] = plane[(y*s + dy)*W + x*s + dx] inside the plane, 0 in the
/// padding. Every index stays inside `plane` and `dst`.
void unfold_tap(const SpanPlan& p, const Tap& t, const float* plane,
                float* dst) {
  const std::int64_t ow = p.ow, s = p.stride;
  zero(dst, 0, t.ys.lo * ow);
  zero(dst, t.ys.hi * ow, p.ohow);
  if (p.same) {
    // The valid rows are one shifted copy of the plane; the columns that
    // wrapped around a row edge are zeroed afterwards.
    const std::int64_t shift = t.dy * ow + t.dx;
    const std::int64_t b = std::max(t.ys.lo * ow, -shift);
    const std::int64_t e = std::min(t.ys.hi * ow, p.ohow - shift);
    if (e > b) copy(plane + (b + shift), e - b, dst + b);
  } else {
    for (std::int64_t y = t.ys.lo; y < t.ys.hi; ++y) {
      const float* src = plane + (y * s + t.dy) * p.in_w;
      float* d = dst + y * ow;
      if (s == 1) {
        if (t.xs.hi > t.xs.lo)
          copy(src + (t.xs.lo + t.dx), t.xs.hi - t.xs.lo, d + t.xs.lo);
      } else {
        for (std::int64_t x = t.xs.lo; x < t.xs.hi; ++x) d[x] = src[x * s + t.dx];
      }
    }
  }
  zero_edge_columns(p, t, dst);
}

/// plane[(y*s + dy)*W + x*s + dx] += src[y*ow + x] over the tap's valid
/// outputs: one add per pixel, so tap order alone fixes the result.
void fold_tap(const SpanPlan& p, const Tap& t, const float* src, float* plane) {
  const std::int64_t ow = p.ow, s = p.stride;
  for (std::int64_t y = t.ys.lo; y < t.ys.hi; ++y) {
    float* __restrict d = plane + (y * s + t.dy) * p.in_w;
    const float* __restrict sr = src + y * ow;
    if (s == 1) {
      for (std::int64_t x = t.xs.lo; x < t.xs.hi; ++x) d[x + t.dx] += sr[x];
    } else {
      for (std::int64_t x = t.xs.lo; x < t.xs.hi; ++x) d[x * s + t.dx] += sr[x];
    }
  }
}

/// Elements per parallel chunk below which splitting costs more than it saves.
constexpr std::int64_t kSpanChunkElems = 4096;

}  // namespace

void im2col(const Conv2dGeometry& g, const float* images, std::int64_t n,
            float* columns) {
  const SpanPlan p(g);
  const std::int64_t kk = static_cast<std::int64_t>(p.taps.size());
  const std::int64_t plane = g.in_h * g.in_w;
  if (n <= 0 || p.ohow <= 0) return;
  // Unit u = row * n + sample writes columns[u*ohow, (u+1)*ohow): the units
  // in order fill the column matrix front to back.
  core::parallel_for(
      0, g.col_rows() * n, std::max<std::int64_t>(1, kSpanChunkElems / p.ohow),
      [&](std::int64_t u0, std::int64_t u1) {
        const std::int64_t row0 = u0 / n;
        std::int64_t i = u0 % n, c = row0 / kk, tap = row0 % kk;
        for (std::int64_t u = u0; u < u1; ++u) {
          unfold_tap(p, p.taps[tap], images + (i * g.in_channels + c) * plane,
                     columns + u * p.ohow);
          if (++i == n) {  // next row: (c, tap) in row-major order
            i = 0;
            if (++tap == kk) {
              tap = 0;
              ++c;
            }
          }
        }
      });
}

void col2im(const Conv2dGeometry& g, const float* columns, std::int64_t n,
            float* images) {
  const SpanPlan p(g);
  const std::int64_t kk = static_cast<std::int64_t>(p.taps.size());
  const std::int64_t plane = g.in_h * g.in_w, ld = n * p.ohow;
  if (n <= 0 || p.ohow <= 0) return;
  // Unit u = sample * C + channel owns one image plane and adds all of its
  // taps in (kh, kw) order; no pixel is touched by two units.
  core::parallel_for(
      0, n * g.in_channels,
      std::max<std::int64_t>(1, kSpanChunkElems / (kk * p.ohow)),
      [&](std::int64_t u0, std::int64_t u1) {
        for (std::int64_t u = u0; u < u1; ++u) {
          const float* src =
              columns + (u % g.in_channels) * kk * ld + (u / g.in_channels) * p.ohow;
          for (std::int64_t r = 0; r < kk; ++r)
            fold_tap(p, p.taps[r], src + r * ld, images + u * plane);
        }
      });
}

void im2col_reference(const Conv2dGeometry& g, const float* images,
                      std::int64_t n, float* columns) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t plane = g.in_h * g.in_w;
  const std::int64_t ld = n * oh * ow;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* image = images + i * g.in_channels * plane;
    std::int64_t row = 0;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      const float* chan = image + c * plane;
      for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
          float* dst = columns + row * ld + i * oh * ow;
          for (std::int64_t y = 0; y < oh; ++y) {
            const std::int64_t iy = y * g.stride + kh - g.padding;
            if (iy < 0 || iy >= g.in_h) {
              std::memset(dst + y * ow, 0, static_cast<std::size_t>(ow) * sizeof(float));
              continue;
            }
            const float* src_row = chan + iy * g.in_w;
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::int64_t ix = x * g.stride + kw - g.padding;
              dst[y * ow + x] =
                  (ix >= 0 && ix < g.in_w) ? src_row[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void col2im_reference(const Conv2dGeometry& g, const float* columns,
                      std::int64_t n, float* images) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t plane = g.in_h * g.in_w;
  const std::int64_t ld = n * oh * ow;
  for (std::int64_t i = 0; i < n; ++i) {
    float* image = images + i * g.in_channels * plane;
    std::int64_t row = 0;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      float* chan = image + c * plane;
      for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
          const float* src = columns + row * ld + i * oh * ow;
          for (std::int64_t y = 0; y < oh; ++y) {
            const std::int64_t iy = y * g.stride + kh - g.padding;
            if (iy < 0 || iy >= g.in_h) continue;
            float* dst_row = chan + iy * g.in_w;
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::int64_t ix = x * g.stride + kw - g.padding;
              if (ix >= 0 && ix < g.in_w) dst_row[ix] += src[y * ow + x];
            }
          }
        }
      }
    }
  }
}

Tensor softmax(const Tensor& logits) {
  check_2d(logits, "softmax");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  Tensor out = logits;
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = out.data() + i * c;
    const float mx = *std::max_element(row, row + c);
    double denom = 0.0;
    for (std::int64_t j = 0; j < c; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < c; ++j) row[j] *= inv;
  }
  return out;
}

float cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  check_2d(logits, "cross_entropy");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  if (static_cast<std::int64_t>(labels.size()) != n)
    throw std::invalid_argument("cross_entropy: label count mismatch");
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    const float mx = *std::max_element(row, row + c);
    double lse = 0.0;
    for (std::int64_t j = 0; j < c; ++j) lse += std::exp(row[j] - mx);
    loss += std::log(lse) + mx - row[labels[static_cast<std::size_t>(i)]];
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

Tensor cross_entropy_grad(const Tensor& logits,
                          const std::vector<std::int64_t>& labels) {
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  Tensor grad = softmax(logits);
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = grad.data() + i * c;
    row[labels[static_cast<std::size_t>(i)]] -= 1.0f;
    for (std::int64_t j = 0; j < c; ++j) row[j] *= inv_n;
  }
  return grad;
}

float soft_cross_entropy(const Tensor& logits, const Tensor& targets) {
  check_2d(logits, "soft_cross_entropy");
  if (!logits.same_shape(targets))
    throw std::invalid_argument("soft_cross_entropy: shape mismatch");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    const float* t = targets.data() + i * c;
    const float mx = *std::max_element(row, row + c);
    double lse = 0.0;
    for (std::int64_t j = 0; j < c; ++j) lse += std::exp(row[j] - mx);
    const double log_z = std::log(lse) + mx;
    for (std::int64_t j = 0; j < c; ++j) loss += t[j] * (log_z - row[j]);
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

Tensor soft_cross_entropy_grad(const Tensor& logits, const Tensor& targets) {
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  Tensor grad = softmax(logits);
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = grad.data() + i * c;
    const float* t = targets.data() + i * c;
    for (std::int64_t j = 0; j < c; ++j) row[j] = (row[j] - t[j]) * inv_n;
  }
  return grad;
}

namespace {
struct DlrRowInfo {
  std::int64_t top1, top3, runner_up;  // runner_up = argmax over i != y
  float numer, denom;
};

DlrRowInfo dlr_row(const float* row, std::int64_t c, std::int64_t y) {
  // Fixed top-3 scan: this runs once per sample per AutoAttack iteration, so
  // no per-row allocation or partial_sort. Ties keep the lowest index.
  std::int64_t i1 = -1, i2 = -1, i3 = -1;
  for (std::int64_t j = 0; j < c; ++j) {
    const float v = row[j];
    if (i1 < 0 || v > row[i1]) {
      i3 = i2;
      i2 = i1;
      i1 = j;
    } else if (i2 < 0 || v > row[i2]) {
      i3 = i2;
      i2 = j;
    } else if (i3 < 0 || v > row[i3]) {
      i3 = j;
    }
  }
  DlrRowInfo info{};
  info.top1 = i1;
  info.top3 = c >= 3 ? i3 : (c == 2 ? i2 : i1);
  info.runner_up = (i1 != y) ? i1 : i2;
  info.numer = row[y] - row[info.runner_up];
  info.denom = row[info.top1] - row[info.top3];
  if (info.denom < 1e-12f) info.denom = 1e-12f;
  return info;
}
}  // namespace

float dlr_loss(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  check_2d(logits, "dlr_loss");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  if (c < 3) throw std::invalid_argument("dlr_loss: needs >= 3 classes");
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto info =
        dlr_row(logits.data() + i * c, c, labels[static_cast<std::size_t>(i)]);
    loss += -static_cast<double>(info.numer) / info.denom;
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

Tensor dlr_loss_grad(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  Tensor grad({n, c});
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    const auto info = dlr_row(row, c, y);
    float* g = grad.data() + i * c;
    // L = -numer/denom; dL = (-d numer * denom + numer * d denom) / denom^2.
    const float inv_d = 1.0f / info.denom;
    g[y] -= inv_d;                // from d numer at y
    g[info.runner_up] += inv_d;   // from d numer at runner-up
    const float dd = info.numer * inv_d * inv_d;
    g[info.top1] += dd;           // from d denom at pi_1
    g[info.top3] -= dd;           // from d denom at pi_3
    for (std::int64_t j = 0; j < c; ++j) g[j] *= inv_n;
  }
  return grad;
}

double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  const auto preds = logits.argmax_rows();
  if (preds.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

}  // namespace fp
