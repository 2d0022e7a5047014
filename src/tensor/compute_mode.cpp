#include "tensor/compute_mode.hpp"

#include <atomic>

namespace fp::compute {

namespace {
thread_local ComputeConfig g_active{};
thread_local bool g_input_grad_only = false;
// Starts at 1 so layers initialised with epoch 0 always revalidate on first
// use. Global (not thread-local): a layer forwarded from two pool threads
// must not see the same epoch with different weight generations.
std::atomic<std::uint64_t> g_weights_epoch{1};
}  // namespace

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
  }
  return "fp32";
}

const ComputeConfig& active() { return g_active; }

bool int8_active() { return g_active.precision == Precision::kInt8; }

bool winograd_active() { return g_active.winograd; }

std::uint64_t weights_epoch() {
  return g_weights_epoch.load(std::memory_order_relaxed);
}

InferenceScope::InferenceScope(const ComputeConfig& cfg) : prev_(g_active) {
  g_active = cfg;
  g_weights_epoch.fetch_add(1, std::memory_order_relaxed);
}

InferenceScope::~InferenceScope() { g_active = prev_; }

bool input_grad_only() { return g_input_grad_only; }

InputGradScope::InputGradScope() : prev_(g_input_grad_only) {
  g_input_grad_only = true;
}

InputGradScope::~InputGradScope() { g_input_grad_only = prev_; }

}  // namespace fp::compute
