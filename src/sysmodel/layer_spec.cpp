#include "sysmodel/layer_spec.hpp"

#include <stdexcept>

namespace fp::sys {

LayerSpec LayerSpec::conv2d(std::int64_t in, std::int64_t out, std::int64_t k,
                            std::int64_t s, std::int64_t p, bool bias) {
  return {LayerKind::kConv2d, in, out, k, s, p, bias};
}

LayerSpec LayerSpec::linear(std::int64_t in, std::int64_t out, bool bias) {
  return {LayerKind::kLinear, in, out, 0, 1, 0, bias};
}

LayerSpec LayerSpec::batchnorm(std::int64_t channels) {
  return {LayerKind::kBatchNorm2d, channels, channels, 0, 1, 0, true};
}

LayerSpec LayerSpec::relu() { return {LayerKind::kReLU, 0, 0, 0, 1, 0, false}; }

LayerSpec LayerSpec::maxpool(std::int64_t k, std::int64_t s) {
  return {LayerKind::kMaxPool2d, 0, 0, k, s < 0 ? k : s, 0, false};
}

LayerSpec LayerSpec::global_avg_pool() {
  return {LayerKind::kGlobalAvgPool, 0, 0, 0, 1, 0, false};
}

LayerSpec LayerSpec::flatten() { return {LayerKind::kFlatten, 0, 0, 0, 1, 0, false}; }

TensorShape out_shape(const LayerSpec& spec, const TensorShape& in) {
  switch (spec.kind) {
    case LayerKind::kConv2d: {
      if (in.c != spec.in_channels)
        throw std::invalid_argument("out_shape: conv channel mismatch");
      const std::int64_t oh = (in.h + 2 * spec.padding - spec.kernel) / spec.stride + 1;
      const std::int64_t ow = (in.w + 2 * spec.padding - spec.kernel) / spec.stride + 1;
      return {spec.out_channels, oh, ow};
    }
    case LayerKind::kLinear:
      if (in.numel() != spec.in_channels)
        throw std::invalid_argument("out_shape: linear feature mismatch");
      return {spec.out_channels, 1, 1};
    case LayerKind::kBatchNorm2d:
    case LayerKind::kReLU:
      return in;
    case LayerKind::kMaxPool2d: {
      const std::int64_t oh = (in.h - spec.kernel) / spec.stride + 1;
      const std::int64_t ow = (in.w - spec.kernel) / spec.stride + 1;
      return {in.c, oh, ow};
    }
    case LayerKind::kGlobalAvgPool:
      return {in.c, 1, 1};
    case LayerKind::kFlatten:
      return {in.numel(), 1, 1};
  }
  throw std::logic_error("out_shape: unknown kind");
}

std::int64_t layer_param_count(const LayerSpec& spec) {
  switch (spec.kind) {
    case LayerKind::kConv2d:
      return spec.out_channels * spec.in_channels * spec.kernel * spec.kernel +
             (spec.bias ? spec.out_channels : 0);
    case LayerKind::kLinear:
      return spec.out_channels * spec.in_channels +
             (spec.bias ? spec.out_channels : 0);
    case LayerKind::kBatchNorm2d:
      return 2 * spec.in_channels;  // gamma + beta
    default:
      return 0;
  }
}

std::int64_t layer_forward_macs(const LayerSpec& spec, const TensorShape& in) {
  const TensorShape out = out_shape(spec, in);
  switch (spec.kind) {
    case LayerKind::kConv2d:
      return out.c * out.h * out.w * spec.in_channels * spec.kernel * spec.kernel;
    case LayerKind::kLinear:
      return spec.out_channels * spec.in_channels;
    case LayerKind::kBatchNorm2d:
      return 2 * in.numel();  // normalize + affine
    case LayerKind::kReLU:
    case LayerKind::kMaxPool2d:
    case LayerKind::kGlobalAvgPool:
      return in.numel();
    case LayerKind::kFlatten:
      return 0;
  }
  return 0;
}

TensorShape atom_out_shape(const AtomSpec& atom, const TensorShape& in) {
  TensorShape s = in;
  for (const auto& layer : atom.layers) s = out_shape(layer, s);
  return s;
}

std::int64_t atom_param_count(const AtomSpec& atom) {
  std::int64_t n = 0;
  for (const auto& layer : atom.layers) n += layer_param_count(layer);
  for (const auto& layer : atom.shortcut) n += layer_param_count(layer);
  return n;
}

std::int64_t atom_forward_macs(const AtomSpec& atom, const TensorShape& in) {
  std::int64_t macs = 0;
  TensorShape s = in;
  for (const auto& layer : atom.layers) {
    macs += layer_forward_macs(layer, s);
    s = out_shape(layer, s);
  }
  if (atom.residual) {
    TensorShape sc = in;
    for (const auto& layer : atom.shortcut) {
      macs += layer_forward_macs(layer, sc);
      sc = out_shape(layer, sc);
    }
    macs += s.numel();  // the elementwise sum + ReLU
  }
  return macs;
}

std::int64_t atom_activation_numel(const AtomSpec& atom, const TensorShape& in) {
  // ReLU is applied in place (its backward needs only the output sign), so
  // it stores no extra activation — this convention reproduces the paper's
  // Table 8 per-module numbers (e.g. ResNet34 Conv 1 = 148.6 MB at B=32).
  std::int64_t acts = 0;
  TensorShape s = in;
  for (const auto& layer : atom.layers) {
    s = out_shape(layer, s);
    if (layer.kind != LayerKind::kReLU) acts += s.numel();
  }
  if (atom.residual) {
    TensorShape sc = in;
    for (const auto& layer : atom.shortcut) {
      sc = out_shape(layer, sc);
      acts += sc.numel();
    }
    // The residual sum and trailing ReLU reuse the main-path buffer.
  }
  return acts;
}

TensorShape ModelSpec::shape_before(std::size_t i) const {
  TensorShape s = input;
  for (std::size_t a = 0; a < i && a < atoms.size(); ++a) s = atom_out_shape(atoms[a], s);
  return s;
}

std::int64_t ModelSpec::total_params() const {
  std::int64_t n = 0;
  for (const auto& atom : atoms) n += atom_param_count(atom);
  return n;
}

}  // namespace fp::sys
