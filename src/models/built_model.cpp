#include "models/built_model.hpp"

#include <stdexcept>

namespace fp::models {

nn::LayerPtr build_layer(const sys::LayerSpec& spec, Rng& rng) {
  using sys::LayerKind;
  switch (spec.kind) {
    case LayerKind::kConv2d:
      return std::make_unique<nn::Conv2d>(spec.in_channels, spec.out_channels,
                                          spec.kernel, spec.stride, spec.padding,
                                          rng, spec.bias);
    case LayerKind::kLinear:
      return std::make_unique<nn::Linear>(spec.in_channels, spec.out_channels, rng,
                                          spec.bias);
    case LayerKind::kBatchNorm2d:
      return std::make_unique<nn::BatchNorm2d>(spec.in_channels);
    case LayerKind::kReLU:
      return std::make_unique<nn::ReLU>();
    case LayerKind::kMaxPool2d:
      return std::make_unique<nn::MaxPool2d>(spec.kernel, spec.stride);
    case LayerKind::kGlobalAvgPool:
      return std::make_unique<nn::GlobalAvgPool>();
    case LayerKind::kFlatten:
      return std::make_unique<nn::Flatten>();
  }
  throw std::logic_error("build_layer: unknown kind");
}

std::vector<nn::LayerPtr> build_atoms(const sys::ModelSpec& spec, Rng& rng) {
  std::vector<nn::LayerPtr> atoms;
  atoms.reserve(spec.atoms.size());
  for (const auto& atom : spec.atoms) {
    if (atom.residual) {
      // basic_block_spec produces conv-bn-relu-conv-bn (+ optional projection);
      // nn::BasicBlock builds exactly that structure.
      const auto& first_conv = atom.layers.at(0);
      atoms.push_back(std::make_unique<nn::BasicBlock>(
          first_conv.in_channels, first_conv.out_channels, first_conv.stride, rng));
    } else {
      auto seq = std::make_unique<nn::Sequential>();
      for (const auto& layer : atom.layers) seq->push_back(build_layer(layer, rng));
      atoms.push_back(std::move(seq));
    }
  }
  return atoms;
}

BuiltModel::BuiltModel(sys::ModelSpec spec, Rng& rng) : spec_(std::move(spec)) {
  atoms_ = build_atoms(spec_, rng);
}

bool BuiltModel::ckpt_matches(std::size_t begin, std::size_t end) const {
  // A checkpoint plan applies to the traversal of exactly the planned range:
  // the first segment starts at `begin` and the last segment reaches `end`.
  return !ckpt_starts_.empty() && ckpt_starts_.front() == begin &&
         ckpt_starts_.back() < end;
}

std::vector<std::size_t> BuiltModel::segment_bounds(std::size_t end) const {
  // Segment boundaries as [start_0, start_1, ..., end].
  std::vector<std::size_t> bounds = ckpt_starts_;
  bounds.push_back(end);
  return bounds;
}

void BuiltModel::set_checkpoint_segments(std::vector<std::size_t> segment_starts) {
  for (std::size_t i = 1; i < segment_starts.size(); ++i)
    if (segment_starts[i] <= segment_starts[i - 1])
      throw std::invalid_argument("checkpoint segments must ascend");
  if (!segment_starts.empty() && segment_starts.back() >= atoms_.size())
    throw std::invalid_argument("checkpoint segment start out of range");
  ckpt_starts_ = std::move(segment_starts);
  ckpt_pass_.reset();
}

Tensor BuiltModel::forward_range_nocache(std::size_t begin, std::size_t end,
                                         const Tensor& x, bool train) {
  if (begin > end || end > atoms_.size())
    throw std::invalid_argument("forward_range_nocache: bad range");
  Tensor h = x;
  for (std::size_t i = begin; i < end; ++i) {
    h = atoms_[i]->forward(h, train);
    atoms_[i]->drop_cached_activations();
  }
  return h;
}

void BuiltModel::drop_caches_range(std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < atoms_.size(); ++i)
    atoms_[i]->drop_cached_activations();
}

Tensor BuiltModel::forward_range(std::size_t begin, std::size_t end, const Tensor& x,
                                 bool train) {
  if (begin > end || end > atoms_.size())
    throw std::invalid_argument("forward_range: bad range");
  if (ckpt_matches(begin, end)) {
    const auto bounds = segment_bounds(end);
    CkptPass pass;
    pass.begin = begin;
    pass.end = end;
    pass.train = train;
    pass.seg_inputs.resize(bounds.size() - 2);
    Tensor h = x;
    for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
      const bool final_seg = s + 2 == bounds.size();
      if (!final_seg) pass.seg_inputs[s] = h;  // recompute restarts here
      for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i)
        h = atoms_[i]->forward(h, train);
      if (!final_seg) drop_caches_range(bounds[s], bounds[s + 1]);
    }
    ckpt_pass_ = std::move(pass);
    return h;
  }
  Tensor h = x;
  for (std::size_t i = begin; i < end; ++i) h = atoms_[i]->forward(h, train);
  return h;
}

Tensor BuiltModel::backward_range(std::size_t begin, std::size_t end,
                                  const Tensor& grad) {
  if (begin > end || end > atoms_.size())
    throw std::invalid_argument("backward_range: bad range");
  if (ckpt_pass_ && ckpt_pass_->begin == begin && ckpt_pass_->end == end) {
    const auto bounds = segment_bounds(end);
    Tensor g = grad;
    for (std::size_t s = bounds.size() - 1; s-- > 0;) {
      const bool final_seg = s + 2 == bounds.size();
      if (!final_seg) {
        // Recompute the segment's forward from its stored input to rebuild
        // the dropped caches. Batch statistics are recomputed identically;
        // running-stat updates are suppressed (the original forward already
        // applied them) and each BN's tracking flag is restored afterwards.
        std::vector<std::pair<nn::BatchNorm2d*, bool>> saved;
        for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i)
          atoms_[i]->for_each_bn([&saved](nn::BatchNorm2d& bn) {
            saved.emplace_back(&bn, bn.track_stats());
            bn.set_track_stats(false);
          });
        Tensor h = std::move(ckpt_pass_->seg_inputs[s]);
        ckpt_pass_->seg_inputs[s] = Tensor();
        for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i)
          h = atoms_[i]->forward(h, ckpt_pass_->train);
        for (auto& [bn, flag] : saved) bn->set_track_stats(flag);
      }
      for (std::size_t i = bounds[s + 1]; i-- > bounds[s];)
        g = atoms_[i]->backward(g);
      // One segment's caches resident at a time: release before recomputing
      // the next (earlier) segment.
      drop_caches_range(bounds[s], bounds[s + 1]);
    }
    ckpt_pass_.reset();
    return g;
  }
  Tensor g = grad;
  for (std::size_t i = end; i > begin; --i) g = atoms_[i - 1]->backward(g);
  return g;
}

std::vector<Tensor*> BuiltModel::parameters_range(std::size_t begin, std::size_t end) {
  std::vector<Tensor*> out;
  for (std::size_t i = begin; i < end; ++i)
    for (auto* p : atoms_[i]->parameters()) out.push_back(p);
  return out;
}

std::vector<Tensor*> BuiltModel::gradients_range(std::size_t begin, std::size_t end) {
  std::vector<Tensor*> out;
  for (std::size_t i = begin; i < end; ++i)
    for (auto* g : atoms_[i]->gradients()) out.push_back(g);
  return out;
}

void BuiltModel::zero_grad_range(std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) atoms_[i]->zero_grad();
}

nn::ParamBlob BuiltModel::save_all() {
  nn::ParamBlob blob;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    const auto atom_blob = save_atom(i);
    blob.insert(blob.end(), atom_blob.begin(), atom_blob.end());
  }
  return blob;
}

void BuiltModel::load_all(const nn::ParamBlob& blob) {
  // Size-check the whole blob first so a mismatched checkpoint never leaves
  // the model half-overwritten.
  std::vector<std::size_t> sizes(atoms_.size());
  std::size_t need = 0;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    sizes[i] = save_atom(i).size();
    need += sizes[i];
  }
  if (need != blob.size())
    throw std::invalid_argument(
        "load_all: blob holds " + std::to_string(blob.size()) +
        " floats but model '" + spec_.name + "' (" +
        std::to_string(atoms_.size()) + " atoms) needs exactly " +
        std::to_string(need));
  std::size_t offset = 0;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    const std::size_t n = sizes[i];
    nn::ParamBlob piece(blob.begin() + static_cast<std::ptrdiff_t>(offset),
                        blob.begin() + static_cast<std::ptrdiff_t>(offset + n));
    load_atom(i, piece);
    offset += n;
  }
}

void BuiltModel::use_bn_bank(int bank) {
  for (auto& atom : atoms_)
    atom->for_each_bn([bank](nn::BatchNorm2d& bn) { bn.use_bank(bank); });
}

int BuiltModel::active_bn_bank() {
  int bank = 0;
  bool found = false;
  for (auto& atom : atoms_)
    atom->for_each_bn([&](nn::BatchNorm2d& bn) {
      if (!found) bank = bn.active_bank();
      found = true;
    });
  return bank;
}

void BuiltModel::set_bn_tracking(bool tracking) {
  for (auto& atom : atoms_)
    atom->for_each_bn(
        [tracking](nn::BatchNorm2d& bn) { bn.set_track_stats(tracking); });
}

std::int64_t BuiltModel::param_count() {
  std::int64_t n = 0;
  for (auto& atom : atoms_) n += nn::param_count(*atom);
  return n;
}

}  // namespace fp::models
