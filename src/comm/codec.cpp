#include "comm/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "tensor/quant.hpp"

namespace fp::comm {

namespace {

void append_bytes(std::vector<std::uint8_t>& out, const void* src,
                  std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  out.insert(out.end(), p, p + n);
}

void read_bytes(const std::vector<std::uint8_t>& in, std::size_t offset,
                void* dst, std::size_t n) {
  if (offset + n > in.size())
    throw std::invalid_argument("comm: truncated wire message");
  std::memcpy(dst, in.data() + offset, n);
}

void check_kind(const WireMessage& msg, CodecKind expect) {
  if (msg.kind != expect)
    throw std::invalid_argument("comm: wire message kind mismatch");
}

}  // namespace

const char* codec_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kIdentity: return "identity";
    case CodecKind::kFp16: return "fp16";
    case CodecKind::kInt8: return "int8";
    case CodecKind::kTopK: return "topk";
  }
  return "unknown";
}

// ---- IEEE binary16 ----------------------------------------------------------

std::uint16_t float_to_half(float value) {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const auto sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  const std::uint32_t abs = f & 0x7fffffffu;

  if (abs >= 0x7f800000u)  // inf / NaN
    return static_cast<std::uint16_t>(
        sign | 0x7c00u | (abs > 0x7f800000u ? 0x200u : 0u));
  if (abs >= 0x47800000u) return sign | 0x7c00u;  // overflow -> inf

  if (abs < 0x38800000u) {  // half-subnormal range (or underflow to zero)
    const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
    const int shift = 126 - static_cast<int>(abs >> 23);
    if (shift > 24) return sign;  // < 2^-25: rounds to zero
    std::uint32_t m = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t half_ulp = 1u << (shift - 1);
    if (rem > half_ulp || (rem == half_ulp && (m & 1u))) ++m;
    return static_cast<std::uint16_t>(sign | m);
  }

  const std::uint32_t exp = (abs >> 23) - 112;
  std::uint16_t h = static_cast<std::uint16_t>(sign | (exp << 10) |
                                               ((abs & 0x7fffffu) >> 13));
  const std::uint32_t rem = abs & 0x1fffu;
  // Round to nearest even; a mantissa carry correctly bumps the exponent
  // (including 65520+ rounding up to infinity).
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return h;
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  const std::uint32_t exp = (half >> 10) & 0x1fu;
  std::uint32_t mant = half & 0x3ffu;
  std::uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;
    } else {  // subnormal: renormalize
      std::uint32_t e = 0;
      while (!(mant & 0x400u)) {
        mant <<= 1;
        ++e;
      }
      f = sign | ((113u - e) << 23) | ((mant & 0x3ffu) << 13);
    }
  } else if (exp == 31) {
    f = sign | 0x7f800000u | (mant << 13);
  } else {
    f = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

// ---- IdentityCodec ----------------------------------------------------------

WireMessage IdentityCodec::encode(const nn::ParamBlob& blob,
                                  std::span<const float> /*ref*/) const {
  WireMessage msg;
  msg.kind = CodecKind::kIdentity;
  msg.num_elems = blob.size();
  msg.payload.resize(blob.size() * sizeof(float));
  if (!blob.empty())
    std::memcpy(msg.payload.data(), blob.data(), msg.payload.size());
  return msg;
}

nn::ParamBlob IdentityCodec::decode(const WireMessage& msg,
                                    std::span<const float> /*ref*/) const {
  check_kind(msg, CodecKind::kIdentity);
  nn::ParamBlob blob(msg.num_elems);
  if (msg.payload.size() != blob.size() * sizeof(float))
    throw std::invalid_argument("IdentityCodec: payload size mismatch");
  if (!blob.empty())
    std::memcpy(blob.data(), msg.payload.data(), msg.payload.size());
  return blob;
}

// ---- Fp16Codec --------------------------------------------------------------

WireMessage Fp16Codec::encode(const nn::ParamBlob& blob,
                              std::span<const float> /*ref*/) const {
  WireMessage msg;
  msg.kind = CodecKind::kFp16;
  msg.num_elems = blob.size();
  msg.payload.resize(blob.size() * sizeof(std::uint16_t));
  auto* out = reinterpret_cast<std::uint16_t*>(msg.payload.data());
  for (std::size_t i = 0; i < blob.size(); ++i) out[i] = float_to_half(blob[i]);
  return msg;
}

nn::ParamBlob Fp16Codec::decode(const WireMessage& msg,
                                std::span<const float> /*ref*/) const {
  check_kind(msg, CodecKind::kFp16);
  if (msg.payload.size() != msg.num_elems * sizeof(std::uint16_t))
    throw std::invalid_argument("Fp16Codec: payload size mismatch");
  nn::ParamBlob blob(msg.num_elems);
  const auto* in = reinterpret_cast<const std::uint16_t*>(msg.payload.data());
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = half_to_float(in[i]);
  return blob;
}

// ---- Int8Codec --------------------------------------------------------------

// The affine-parameter derivation, rounding, and error bound all live in
// tensor/quant.hpp (quant::AffineGrid) — shared with the fake-quantization
// grid and the int8 GEMM packs so there is one quantization implementation.

double Int8Codec::grid_step(const nn::ParamBlob& blob) {
  if (blob.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(blob.begin(), blob.end());
  return static_cast<double>(quant::affine_grid(*lo, *hi).scale);
}

WireMessage Int8Codec::encode(const nn::ParamBlob& blob,
                              std::span<const float> /*ref*/) const {
  WireMessage msg;
  msg.kind = CodecKind::kInt8;
  msg.num_elems = blob.size();
  if (blob.empty()) return msg;

  const auto [lo_it, hi_it] = std::minmax_element(blob.begin(), blob.end());
  // Affine grid: x ~ lo + scale * q, q in [0, 255]. A constant blob encodes
  // with scale 0 and decodes exactly to lo.
  const quant::AffineGrid grid = quant::affine_grid(*lo_it, *hi_it);

  msg.payload.reserve(2 * sizeof(float) + blob.size());
  append_bytes(msg.payload, &grid.lo, sizeof(grid.lo));
  append_bytes(msg.payload, &grid.scale, sizeof(grid.scale));
  for (const float x : blob) msg.payload.push_back(quant::affine_encode(grid, x));
  return msg;
}

nn::ParamBlob Int8Codec::decode(const WireMessage& msg,
                                std::span<const float> /*ref*/) const {
  check_kind(msg, CodecKind::kInt8);
  nn::ParamBlob blob(msg.num_elems);
  if (blob.empty()) return blob;
  if (msg.payload.size() != 2 * sizeof(float) + msg.num_elems)
    throw std::invalid_argument("Int8Codec: payload size mismatch");
  quant::AffineGrid grid;
  read_bytes(msg.payload, 0, &grid.lo, sizeof(grid.lo));
  read_bytes(msg.payload, sizeof(grid.lo), &grid.scale, sizeof(grid.scale));
  const std::uint8_t* codes = msg.payload.data() + 2 * sizeof(float);
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = quant::affine_decode(grid, codes[i]);
  return blob;
}

// ---- TopKCodec --------------------------------------------------------------

std::size_t TopKCodec::kept_count(std::size_t n) const {
  if (n == 0) return 0;
  const double want = std::ceil(fraction_ * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(want, 1.0)),
                                 1, n);
}

WireMessage TopKCodec::encode(const nn::ParamBlob& blob,
                              std::span<const float> ref) const {
  const bool use_delta = delta_ && !ref.empty();
  if (use_delta && ref.size() != blob.size())
    throw std::invalid_argument("TopKCodec: reference size mismatch");
  if (blob.size() > 0xffffffffull)
    throw std::invalid_argument("TopKCodec: blob too large for u32 indices");

  WireMessage msg;
  msg.kind = CodecKind::kTopK;
  msg.delta = use_delta;
  msg.num_elems = blob.size();
  const std::size_t k = kept_count(blob.size());
  if (k == 0) return msg;

  // Selection magnitude: |blob - ref| in delta mode, |blob| otherwise. Ties
  // break toward the lower index so the selection is a pure function of the
  // inputs (deterministic at any thread count).
  auto magnitude = [&](std::size_t i) {
    const float v = use_delta ? blob[i] - ref[i] : blob[i];
    return std::fabs(v);
  };
  std::vector<std::uint32_t> idx(blob.size());
  std::iota(idx.begin(), idx.end(), 0u);
  const auto larger = [&](std::uint32_t a, std::uint32_t b) {
    const float ma = magnitude(a), mb = magnitude(b);
    if (ma != mb) return ma > mb;
    return a < b;
  };
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   idx.end(), larger);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());  // index-ordered pairs decode cache-hot

  // The shipped value is the ABSOLUTE parameter (selection only uses the
  // delta), so kept coordinates decode exactly in both modes.
  msg.payload.reserve(k * (sizeof(std::uint32_t) + sizeof(float)));
  for (const std::uint32_t i : idx) {
    append_bytes(msg.payload, &i, sizeof(i));
    append_bytes(msg.payload, &blob[i], sizeof(float));
  }
  return msg;
}

nn::ParamBlob TopKCodec::decode(const WireMessage& msg,
                                std::span<const float> ref) const {
  check_kind(msg, CodecKind::kTopK);
  if (msg.payload.size() % (sizeof(std::uint32_t) + sizeof(float)) != 0)
    throw std::invalid_argument("TopKCodec: payload size mismatch");
  nn::ParamBlob blob;
  if (msg.delta) {
    if (ref.size() != msg.num_elems)
      throw std::invalid_argument("TopKCodec: delta message needs reference");
    // Unsent coordinates keep the reference value.
    blob.assign(ref.begin(), ref.end());
  } else {
    blob.assign(msg.num_elems, 0.0f);  // unsent coordinates densify to zero
  }
  const std::size_t pairs =
      msg.payload.size() / (sizeof(std::uint32_t) + sizeof(float));
  std::size_t off = 0;
  for (std::size_t p = 0; p < pairs; ++p) {
    std::uint32_t i = 0;
    float v = 0.0f;
    read_bytes(msg.payload, off, &i, sizeof(i));
    off += sizeof(i);
    read_bytes(msg.payload, off, &v, sizeof(v));
    off += sizeof(v);
    if (i >= blob.size())
      throw std::invalid_argument("TopKCodec: index out of range");
    blob[i] = v;
  }
  return blob;
}

std::unique_ptr<BlobCodec> make_codec(const CommConfig& cfg) {
  switch (cfg.codec) {
    case CodecKind::kIdentity: return std::make_unique<IdentityCodec>();
    case CodecKind::kFp16: return std::make_unique<Fp16Codec>();
    case CodecKind::kInt8: return std::make_unique<Int8Codec>();
    case CodecKind::kTopK:
      return std::make_unique<TopKCodec>(cfg.topk_fraction, cfg.topk_delta);
  }
  throw std::invalid_argument("make_codec: unknown codec kind");
}

}  // namespace fp::comm
