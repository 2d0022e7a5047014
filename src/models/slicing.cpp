#include "models/slicing.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace fp::models {

namespace {

using sys::AtomSpec;
using sys::LayerKind;
using sys::LayerSpec;

std::vector<std::int64_t> all_indices(std::int64_t n) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

std::vector<std::int64_t> select_indices(std::int64_t c, double ratio,
                                         SliceScheme scheme, std::int64_t round,
                                         Rng& rng) {
  const auto k = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(ratio * static_cast<double>(c))));
  if (k >= c) return all_indices(c);
  std::vector<std::int64_t> idx;
  switch (scheme) {
    case SliceScheme::kStatic:
      idx = all_indices(c);
      idx.resize(static_cast<std::size_t>(k));
      break;
    case SliceScheme::kRandom: {
      idx = all_indices(c);
      rng.shuffle(idx);
      idx.resize(static_cast<std::size_t>(k));
      std::sort(idx.begin(), idx.end());
      break;
    }
    case SliceScheme::kRolling: {
      // FedRolex: cyclic window advancing one channel per round.
      const std::int64_t start = round % c;
      for (std::int64_t j = 0; j < k; ++j) idx.push_back((start + j) % c);
      std::sort(idx.begin(), idx.end());
      break;
    }
  }
  return idx;
}

}  // namespace

SlicePlan make_slice_plan(const sys::ModelSpec& global, double ratio,
                          SliceScheme scheme, std::int64_t round, Rng& rng) {
  SlicePlan plan;
  plan.ratio = ratio;
  plan.sliced_spec = global;  // copy; channel counts rewritten below
  plan.sliced_spec.name = global.name + "-slice";
  plan.atoms.resize(global.atoms.size());

  // Kept indices of the current activation, and the global shape (for
  // flatten expansion).
  std::vector<std::int64_t> cur = all_indices(global.input.c);
  sys::TensorShape gshape = global.input;

  for (std::size_t ai = 0; ai < global.atoms.size(); ++ai) {
    const AtomSpec& atom = global.atoms[ai];
    AtomSlice& aslice = plan.atoms[ai];
    AtomSpec& satom = plan.sliced_spec.atoms[ai];
    const bool last_atom = (ai + 1 == global.atoms.size());

    if (atom.residual) {
      const LayerSpec& conv1 = atom.layers.at(0);
      const LayerSpec& conv2 = atom.layers.at(3);
      const std::vector<std::int64_t> block_in = cur;
      const auto mid = select_indices(conv1.out_channels, ratio, scheme, round, rng);
      // Identity shortcuts add the input to the output elementwise, so the
      // kept output channels must be exactly the kept input channels.
      const auto out = atom.shortcut.empty()
                           ? block_in
                           : select_indices(conv2.out_channels, ratio, scheme,
                                            round + 1, rng);
      aslice.layers = {{block_in, mid}, {mid, mid}, {}, {mid, out}, {out, out}};
      if (!atom.shortcut.empty()) aslice.shortcut = {{block_in, out}, {out, out}};
      // Rewrite the sliced spec channels.
      satom.layers[0].in_channels = static_cast<std::int64_t>(block_in.size());
      satom.layers[0].out_channels = static_cast<std::int64_t>(mid.size());
      satom.layers[1].in_channels = satom.layers[1].out_channels =
          static_cast<std::int64_t>(mid.size());
      satom.layers[3].in_channels = static_cast<std::int64_t>(mid.size());
      satom.layers[3].out_channels = static_cast<std::int64_t>(out.size());
      satom.layers[4].in_channels = satom.layers[4].out_channels =
          static_cast<std::int64_t>(out.size());
      if (!atom.shortcut.empty()) {
        satom.shortcut[0].in_channels = static_cast<std::int64_t>(block_in.size());
        satom.shortcut[0].out_channels = static_cast<std::int64_t>(out.size());
        satom.shortcut[1].in_channels = satom.shortcut[1].out_channels =
            static_cast<std::int64_t>(out.size());
      }
      cur = out;
      gshape = atom_out_shape(atom, gshape);
      continue;
    }

    aslice.layers.resize(atom.layers.size());
    for (std::size_t li = 0; li < atom.layers.size(); ++li) {
      const LayerSpec& layer = atom.layers[li];
      LayerSpec& slayer = satom.layers[li];
      switch (layer.kind) {
        case LayerKind::kConv2d: {
          const auto out = select_indices(layer.out_channels, ratio, scheme,
                                          round + static_cast<std::int64_t>(li), rng);
          aslice.layers[li] = {cur, out};
          slayer.in_channels = static_cast<std::int64_t>(cur.size());
          slayer.out_channels = static_cast<std::int64_t>(out.size());
          cur = out;
          break;
        }
        case LayerKind::kLinear: {
          const bool is_output =
              last_atom && layer.out_channels == global.num_classes;
          const auto out = is_output
                               ? all_indices(layer.out_channels)
                               : select_indices(layer.out_channels, ratio, scheme,
                                                round + static_cast<std::int64_t>(li),
                                                rng);
          aslice.layers[li] = {cur, out};
          slayer.in_channels = static_cast<std::int64_t>(cur.size());
          slayer.out_channels = static_cast<std::int64_t>(out.size());
          cur = out;
          break;
        }
        case LayerKind::kBatchNorm2d:
          aslice.layers[li] = {cur, cur};
          slayer.in_channels = slayer.out_channels =
              static_cast<std::int64_t>(cur.size());
          break;
        case LayerKind::kFlatten: {
          // Expand channel indices to flattened feature indices.
          const std::int64_t plane = gshape.h * gshape.w;
          std::vector<std::int64_t> expanded;
          expanded.reserve(cur.size() * static_cast<std::size_t>(plane));
          for (const auto c : cur)
            for (std::int64_t j = 0; j < plane; ++j) expanded.push_back(c * plane + j);
          cur = std::move(expanded);
          break;
        }
        case LayerKind::kReLU:
        case LayerKind::kMaxPool2d:
        case LayerKind::kGlobalAvgPool:
          break;  // channel identity preserved
      }
      gshape = out_shape(layer, gshape);
    }
  }
  return plan;
}

namespace {

/// One global tensor and the kept indices of its slice.
struct Entry {
  const Tensor* global = nullptr;
  const std::vector<std::int64_t>* out = nullptr;
  const std::vector<std::int64_t>* in = nullptr;  ///< null for a 1-D tensor
};

/// Collects parameter entries (into `params`) and buffer entries (into
/// `bufs`) for a plain layer sequence.
void walk_sequence(const std::vector<LayerSpec>& specs,
                   const std::vector<LayerSlice>& slices, nn::Sequential& seq,
                   std::vector<Entry>& params, std::vector<Entry>& bufs) {
  if (seq.size() != specs.size() || slices.size() != specs.size())
    throw std::logic_error("walk_sequence: structure mismatch");
  for (std::size_t j = 0; j < specs.size(); ++j) {
    const LayerSlice& ls = slices[j];
    const bool has_weight =
        specs[j].kind == LayerKind::kConv2d || specs[j].kind == LayerKind::kLinear;
    const auto ps = seq.at(j).parameters();
    for (std::size_t p = 0; p < ps.size(); ++p)
      // The weight matrix/kernel slices both ways; bias / gamma / beta are
      // 1-D over output channels.
      params.push_back({ps[p], &ls.out, has_weight && p == 0 ? &ls.in : nullptr});
    for (Tensor* b : seq.at(j).buffers()) bufs.push_back({b, &ls.out, nullptr});
  }
}

/// The atom's tensors in save_atom order (parameters, then buffers).
std::vector<Entry> enumerate_entries(const AtomSpec& spec, const AtomSlice& slice,
                                     nn::Layer& atom) {
  std::vector<Entry> params, bufs;
  if (spec.residual) {
    auto* block = dynamic_cast<nn::BasicBlock*>(&atom);
    if (!block) throw std::logic_error("enumerate: not a BasicBlock");
    std::vector<Entry> sc_params, sc_bufs;
    walk_sequence(spec.layers, slice.layers, block->main_path(), params, bufs);
    if (!spec.shortcut.empty()) {
      if (!block->shortcut_path())
        throw std::logic_error("enumerate: missing shortcut");
      walk_sequence(spec.shortcut, slice.shortcut, *block->shortcut_path(),
                    sc_params, sc_bufs);
    }
    params.insert(params.end(), sc_params.begin(), sc_params.end());
    bufs.insert(bufs.end(), sc_bufs.begin(), sc_bufs.end());
  } else {
    auto* seq = dynamic_cast<nn::Sequential*>(&atom);
    if (!seq) throw std::logic_error("enumerate: not a Sequential");
    walk_sequence(spec.layers, slice.layers, *seq, params, bufs);
  }
  params.insert(params.end(), bufs.begin(), bufs.end());
  return params;
}

/// Calls fn(offset, n) for each contiguous run of the global tensor that the
/// slice keeps, in the sliced tensor's row-major order: the sliced tensor
/// is exactly these runs, back to back.
template <class Fn>
void for_each_kept_run(const Entry& e, Fn&& fn) {
  const Tensor& g = *e.global;
  if (!e.in) {  // bias / gamma / running stats: 1-D over output channels
    for (const std::int64_t o : *e.out) fn(o, 1);
    return;
  }
  // Weight: [O, I, ...]: rows by out, columns by in.
  const std::int64_t gi = g.dim(1);
  const std::int64_t tail = g.numel() / (g.dim(0) * gi);  // kernel window
  for (const std::int64_t o : *e.out)
    for (const std::int64_t i : *e.in) fn((o * gi + i) * tail, tail);
}

}  // namespace

nn::ParamBlob gather_weights(const SlicePlan& plan, BuiltModel& global_model) {
  nn::ParamBlob blob;
  for (std::size_t a = 0; a < global_model.num_atoms(); ++a) {
    for (const Entry& e : enumerate_entries(global_model.spec().atoms[a],
                                            plan.atoms[a], global_model.atom(a))) {
      const float* g = e.global->data();
      for_each_kept_run(e, [&](std::int64_t off, std::int64_t n) {
        blob.insert(blob.end(), g + off, g + off + n);
      });
    }
  }
  return blob;
}

void scatter_add_weights(const SlicePlan& plan, BuiltModel& global_model,
                         const nn::ParamBlob& sliced,
                         std::vector<std::vector<Tensor>>& acc,
                         std::vector<std::vector<Tensor>>& count, float weight) {
  const float* src = sliced.data();
  const float* const end = src + sliced.size();
  for (std::size_t a = 0; a < global_model.num_atoms(); ++a) {
    const auto entries = enumerate_entries(global_model.spec().atoms[a],
                                           plan.atoms[a], global_model.atom(a));
    if (entries.size() != acc[a].size() || entries.size() != count[a].size())
      throw std::logic_error("scatter_add_weights: accumulator mismatch");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      float* sum = acc[a][i].data();
      float* cnt = count[a][i].data();
      for_each_kept_run(entries[i], [&](std::int64_t off, std::int64_t n) {
        if (end - src < n)
          throw std::invalid_argument("scatter_add_weights: sliced blob too small");
        for (std::int64_t t = 0; t < n; ++t) {
          sum[off + t] += weight * src[t];
          cnt[off + t] += weight;
        }
        src += n;
      });
    }
  }
  if (src != end)
    throw std::invalid_argument("scatter_add_weights: sliced blob too large");
}

}  // namespace fp::models
