// Compute routing: precision for inference-only forwards, and
// input-gradient-only backwards for attack generation (DESIGN.md §8).
//
// The cascade's frozen-prefix forward and every evaluation pass are pure
// inference: no backward ever runs through them, so they may use the int8
// GEMM and Winograd kernels. Gradient-carrying forwards must stay on the
// fp32 blocked GEMM (backward reuses the forward's im2col scratch, and
// training trajectories must remain bit-identical by default).
//
// The selection is a thread-local scope: a call site that is about to run an
// inference-only forward activates its ComputeConfig with an InferenceScope;
// Conv2d/Linear::forward consult active() and dispatch. The default scope is
// {fp32, no winograd}, so code that never opens a scope is unchanged. The
// scope is thread-local because client training tasks run concurrently on
// the shared worker pool — each client's eval must not leak its mode into a
// neighbour's backward pass.
//
// An attack step only needs d loss / d input. attack::fgsm/pgd/apgd open an
// InputGradScope for their whole run; under it every parameterized layer's
// backward still returns the exact grad_in but skips its parameter-gradient
// work (weight GEMMs, bias and BatchNorm reductions) and leaves gradients()
// untouched. Layers read the flag once on the calling thread, before any
// core::parallel_for: pool threads do not inherit thread-local scopes, so
// code that runs a whole forward/backward in a pool task (sharded
// evaluation, attack/sharded.cpp) re-opens the caller's scopes there.
#pragma once

#include <cstdint>

namespace fp::compute {

enum class Precision : std::uint8_t {
  kFp32,  ///< PR 1 blocked fp32 GEMM (default; bit-identical history)
  kInt8,  ///< block-quantized int8 GEMM with fp32 accumulation
};

const char* precision_name(Precision p);

struct ComputeConfig {
  Precision precision = Precision::kFp32;
  /// Winograd F(2x2,3x3) for eligible 3x3 stride-1 convolutions.
  bool winograd = false;
};

/// The mode Conv2d/Linear forwards consult on this thread.
const ComputeConfig& active();

/// True when the active scope requests the quantized / transformed kernels.
bool int8_active();
bool winograd_active();

/// Monotonic counter bumped every time an InferenceScope is entered. Layer
/// weights must not change while a scope is active (backward throws through
/// inference forwards, and optimizer/aggregation steps never run inside one),
/// so layers revalidate their cached weight packs — the content hash that
/// guards the quantized/Winograd plans — at most once per epoch instead of
/// on every forward.
std::uint64_t weights_epoch();

/// RAII activation of a ComputeConfig for the enclosing inference block.
/// Restores the previous thread-local mode on destruction (scopes nest).
class InferenceScope {
 public:
  explicit InferenceScope(const ComputeConfig& cfg);
  ~InferenceScope();
  InferenceScope(const InferenceScope&) = delete;
  InferenceScope& operator=(const InferenceScope&) = delete;

 private:
  ComputeConfig prev_;
};

/// True while an InputGradScope is open on this thread: Layer::backward
/// must return grad_in but neither compute nor accumulate parameter grads.
bool input_grad_only();

/// RAII activation of input-gradient-only backwards for the enclosing block.
/// Restores the previous thread-local state on destruction (scopes nest).
class InputGradScope {
 public:
  InputGradScope();
  ~InputGradScope();
  InputGradScope(const InputGradScope&) = delete;
  InputGradScope& operator=(const InputGradScope&) = delete;

 private:
  bool prev_;
};

/// Documented bound on the clean-accuracy delta between an int8(+Winograd)
/// evaluation and the fp32 evaluation of the same model on the paper's bench
/// scenarios (tests/test_quant_kernels.cpp and the CI smoke enforce it).
inline constexpr double kInt8EvalAccuracyBound = 0.03;

}  // namespace fp::compute
