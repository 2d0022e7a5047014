// Micro-benchmarks (google-benchmark) for the kernels that dominate
// training time on this substrate: GEMM (blocked vs reference), conv2d
// forward/backward (batched vs per-sample), the conv unfold/fold against
// the seed's loops with the GEMMs beside them, a full train step, BatchNorm,
// one PGD attack step, the attack-step backward with and without
// parameter gradients, an eval attack step plain vs sample-sharded, and
// partial-average aggregation.
//
// Thread count is controlled by FP_NUM_THREADS (see core/parallel.hpp), so
// the before/after numbers the ISSUE asks for are, e.g.:
//   FP_NUM_THREADS=4 ./bench_micro --benchmark_filter='Gemm.*/512'
//   FP_NUM_THREADS=1 ./bench_micro --benchmark_filter='Conv2dFwdBwd'
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "attack/attacks.hpp"
#include "attack/evaluate.hpp"
#include "attack/sharded.hpp"
#include "fed/aggregator.hpp"
#include "models/zoo.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"
#include "obs/trace.hpp"
#include "tensor/compute_mode.hpp"
#include "tensor/ops.hpp"
#include "tensor/qgemm.hpp"

namespace {
using namespace fp;

/// Best-of-N wall time of one call — the manual fp32 baseline each quantized
/// benchmark reports its speedup against (same thread pool, same shapes).
template <class Fn>
double seconds_per_call(Fn&& fn, int reps = 3) {
  fn();  // warm caches and scratch
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = obs::now_s();
    fn();
    best = std::min(best, obs::now_s() - t0);
  }
  return best;
}

// GFLOP/s of the blocked, pool-parallel GEMM. 512 is the acceptance size.
void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  const double flops = 2.0 * n * n * n;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flops));
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512);

// The seed's scalar triple loop, kept as gemm_reference: the "before" bar.
void BM_GemmReference(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm_reference(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
                   c.data());
    benchmark::DoNotOptimize(c.data());
  }
  const double flops = 2.0 * n * n * n;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flops));
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmReference)->Arg(128)->Arg(512);

// Block-quantized int8 GEMM (C = A * B^T): weights packed once, activations
// quantized on pack per call — the inference pipeline's steady state. The
// speedup_vs_fp32 counter divides by a manually timed blocked-fp32 NT GEMM
// of the same shape on the same pool.
void BM_QGemmInt8(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  const double fp32_s = seconds_per_call([&] {
    gemm(false, true, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
  });
  QuantizedMat qb;
  quantize_rows_int8(b.data(), n, n, n, qb);
  QuantizedMat qa;
  double elapsed = 0.0;
  for (auto _ : state) {
    const double t0 = obs::now_s();
    quantize_rows_int8(a.data(), n, n, n, qa);
    qgemm_nt(n, n, qa, qb, c.data(), n);
    elapsed += obs::now_s() - t0;
    benchmark::DoNotOptimize(c.data());
  }
  const double flops = 2.0 * n * n * n;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flops));
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["speedup_vs_fp32"] =
      fp32_s / (elapsed / static_cast<double>(state.iterations()));
  state.SetLabel(qgemm_kernel_name());
}
BENCHMARK(BM_QGemmInt8)->Arg(128)->Arg(256)->Arg(512);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  const Tensor y = conv.forward(x, true);
  const Tensor g = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2dBackward);

constexpr std::int64_t kConvBatch = 32;

// One batched forward+backward over the whole minibatch: one im2col buffer,
// one large GEMM per direction.
void BM_Conv2dFwdBwdBatched(benchmark::State& state) {
  Rng rng(7);
  nn::Conv2d conv(32, 32, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({kConvBatch, 32, 16, 16}, rng);
  Tensor g;
  {
    const Tensor y = conv.forward(x, true);
    g = Tensor::randn(y.shape(), rng);
  }
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    conv.zero_grad();
    Tensor gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch);
}
BENCHMARK(BM_Conv2dFwdBwdBatched);

// The seed's conv path, reproduced verbatim: one im2col + one scalar
// gemm_reference per sample per direction (plus the backward im2col
// recompute). Batched/SeedPerSample is the "before/after" speedup.
void BM_Conv2dFwdBwdSeedPerSample(benchmark::State& state) {
  Rng rng(7);
  const std::int64_t ch = 32, hw = 16;
  const Tensor x = Tensor::randn({kConvBatch, ch, hw, hw}, rng);
  Tensor weight = Tensor::randn({ch, ch, 3, 3}, rng);
  Tensor grad_weight({ch, ch, 3, 3});
  Conv2dGeometry g{ch, ch, 3, 1, 1, hw, hw};
  const std::int64_t in_plane = ch * hw * hw;
  const std::int64_t out_plane = ch * g.out_h() * g.out_w();
  Tensor out({kConvBatch, ch, g.out_h(), g.out_w()});
  const Tensor go = Tensor::randn(out.shape(), rng);
  Tensor grad_in(x.shape());
  Tensor cols({g.col_rows(), g.col_cols()});
  Tensor grad_cols({g.col_rows(), g.col_cols()});
  for (auto _ : state) {
    for (std::int64_t i = 0; i < kConvBatch; ++i) {
      im2col_reference(g, x.data() + i * in_plane, 1, cols.data());
      gemm_reference(false, false, ch, g.col_cols(), g.col_rows(), 1.0f,
                     weight.data(), cols.data(), 0.0f,
                     out.data() + i * out_plane);
    }
    grad_weight.fill(0.0f);
    grad_in.fill(0.0f);
    for (std::int64_t i = 0; i < kConvBatch; ++i) {
      const float* goi = go.data() + i * out_plane;
      im2col_reference(g, x.data() + i * in_plane, 1, cols.data());
      gemm_reference(false, true, ch, g.col_rows(), g.col_cols(), 1.0f, goi,
                     cols.data(), 1.0f, grad_weight.data());
      gemm_reference(true, false, g.col_rows(), g.col_cols(), ch, 1.0f,
                     weight.data(), goi, 0.0f, grad_cols.data());
      col2im_reference(g, grad_cols.data(), 1, grad_in.data() + i * in_plane);
    }
    benchmark::DoNotOptimize(grad_in.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch);
}
BENCHMARK(BM_Conv2dFwdBwdSeedPerSample);

// The unfold/fold phases of one 3x3 "same" conv at batch 32, one row per
// TinyVGG-w8 conv geometry {in_c, out_c, px}. The timed loop is the batched
// kernel; `ref_ms` is the seed's scalar loop on the same data and
// `speedup` their ratio. The GEMMs of the same conv are timed next to them
// (`fwd_gemm_ms` with the unfold, `dgrad_gemm_ms` and `wgrad_gemm_ms` with
// the fold), so the two rows give the layer's whole phase split.
struct ConvPhases {
  Conv2dGeometry g;
  std::int64_t cols;  ///< N * oh * ow
  Tensor x, weight, columns, go;
  Tensor grad_weight, grad_in, work;

  explicit ConvPhases(const benchmark::State& state)
      : g{state.range(0), state.range(1), 3, 1, 1, state.range(2),
          state.range(2)},
        cols(kConvBatch * g.col_cols()) {
    Rng rng(11);
    x = Tensor::randn({kConvBatch, g.in_channels, g.in_h, g.in_w}, rng);
    weight = Tensor::randn({g.out_channels, g.col_rows()}, rng);
    columns = Tensor::randn({g.col_rows(), cols}, rng);
    go = Tensor::randn({g.out_channels, cols}, rng);
    grad_weight = Tensor({g.out_channels, g.col_rows()});
    grad_in = Tensor(x.shape());
    work = Tensor({std::max(g.out_channels, g.col_rows()), cols});
  }
};

template <class Fn>
double ms_per_call(Fn&& fn) {
  return seconds_per_call(fn) * 1e3;
}

void BM_ConvUnfold(benchmark::State& state) {
  ConvPhases c(state);
  for (auto _ : state) {
    im2col(c.g, c.x.data(), kConvBatch, c.work.data());
    benchmark::DoNotOptimize(c.work.data());
    benchmark::ClobberMemory();
  }
  const double ref_ms = ms_per_call(
      [&] { im2col_reference(c.g, c.x.data(), kConvBatch, c.work.data()); });
  state.counters["ref_ms"] = ref_ms;
  state.counters["speedup"] = ref_ms / ms_per_call([&] {
    im2col(c.g, c.x.data(), kConvBatch, c.work.data());
  });
  state.counters["fwd_gemm_ms"] = ms_per_call([&] {
    gemm(false, false, c.g.out_channels, c.cols, c.g.col_rows(), 1.0f,
         c.weight.data(), c.columns.data(), 0.0f, c.work.data());
  });
  state.SetBytesProcessed(state.iterations() * c.g.col_rows() * c.cols *
                          static_cast<std::int64_t>(sizeof(float)));
}

void BM_ConvFold(benchmark::State& state) {
  ConvPhases c(state);
  for (auto _ : state) {
    c.grad_in.fill(0.0f);
    col2im(c.g, c.columns.data(), kConvBatch, c.grad_in.data());
    benchmark::DoNotOptimize(c.grad_in.data());
    benchmark::ClobberMemory();
  }
  const auto fold_ms = [&](auto&& kernel) {
    return ms_per_call([&] {
      c.grad_in.fill(0.0f);
      kernel(c.g, c.columns.data(), kConvBatch, c.grad_in.data());
    });
  };
  const double ref_ms = fold_ms(col2im_reference);
  state.counters["ref_ms"] = ref_ms;
  state.counters["speedup"] = ref_ms / fold_ms(col2im);
  state.counters["dgrad_gemm_ms"] = ms_per_call([&] {
    gemm(true, false, c.g.col_rows(), c.cols, c.g.out_channels, 1.0f,
         c.weight.data(), c.go.data(), 0.0f, c.work.data());
  });
  state.counters["wgrad_gemm_ms"] = ms_per_call([&] {
    gemm(false, true, c.g.out_channels, c.g.col_rows(), c.cols, 1.0f,
         c.go.data(), c.columns.data(), 1.0f, c.grad_weight.data());
  });
  state.SetBytesProcessed(state.iterations() * c.g.col_rows() * c.cols *
                          static_cast<std::int64_t>(sizeof(float)));
}

void tiny_vgg_w8_convs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"in", "out", "px"});
  for (const auto& a : {std::vector<std::int64_t>{3, 8, 16}, {8, 8, 16},
                        {8, 16, 8}, {16, 16, 8}, {16, 32, 4}, {32, 32, 4}})
    b->Args(a);
  b->UseRealTime();
}
BENCHMARK(BM_ConvUnfold)->Apply(tiny_vgg_w8_convs);
BENCHMARK(BM_ConvFold)->Apply(tiny_vgg_w8_convs);

// Inference forward of a 3x3 conv under each compute mode, against the
// manually timed fp32 im2col+blocked-GEMM forward of the same layer.
// Args: {channels, spatial, mode}; mode bit 0 = winograd, bit 1 = int8.
// The channel/spatial pairs walk down a VGG-16 on CIFAR-10: 32ch@16x16
// stands in for the early blocks (where the ic >= 96 gate keeps the tile
// GEMMs in fp32), 128ch@8x8 and 256ch@4x4 are the mid/deep blocks where
// int8 tile GEMMs dominate the model's FLOPs.
void BM_ConvInferenceForward(benchmark::State& state) {
  Rng rng(9);
  const std::int64_t ch = state.range(0), hw = state.range(1);
  nn::Conv2d conv(ch, ch, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({kConvBatch, ch, hw, hw}, rng);
  const double fp32_s = seconds_per_call([&] {
    Tensor y = conv.forward(x, /*train=*/false);
    benchmark::DoNotOptimize(y.data());
  });
  compute::ComputeConfig cc;
  cc.winograd = (state.range(2) & 1) != 0;
  cc.precision = (state.range(2) & 2) != 0 ? compute::Precision::kInt8
                                           : compute::Precision::kFp32;
  const compute::InferenceScope scope(cc);
  {
    // Build the layer's Winograd plan / weight packs outside the timed loop:
    // the row measures the steady state (plans rebuild only when weights
    // change), not the one-time transform.
    Tensor y = conv.forward(x, /*train=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  double elapsed = 0.0;
  for (auto _ : state) {
    const double t0 = obs::now_s();
    Tensor y = conv.forward(x, /*train=*/false);
    elapsed += obs::now_s() - t0;
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch);
  state.counters["speedup_vs_fp32"] =
      fp32_s / (elapsed / static_cast<double>(state.iterations()));
  state.SetLabel(std::string(compute::precision_name(cc.precision)) +
                 (cc.winograd ? "+winograd" : ""));
}
BENCHMARK(BM_ConvInferenceForward)
    ->Args({32, 16, 1})    // fp32 + Winograd, early block
    ->Args({32, 16, 3})    // int8 + Winograd (gate keeps tile GEMMs fp32)
    ->Args({128, 8, 2})    // int8 im2col, mid block
    ->Args({128, 8, 3})    // int8 + Winograd, mid block
    ->Args({256, 4, 3});   // int8 + Winograd, deep block

// Whole-model eval forward (the frozen-prefix / evaluation hot path) in the
// int8+Winograd configuration vs the default fp32 forward, on the VGG-16 /
// CIFAR-10 model FedProphet partitions in the paper's experiments.
void BM_EvalForwardInt8Winograd(benchmark::State& state) {
  Rng rng(10);
  models::BuiltModel model(models::vgg16_spec(32, 10), rng);
  const Tensor x = Tensor::rand_uniform({8, 3, 32, 32}, rng, 0.0f, 1.0f);
  const double fp32_s = seconds_per_call([&] {
    Tensor y = model.forward(x, /*train=*/false);
    benchmark::DoNotOptimize(y.data());
  });
  compute::ComputeConfig cc;
  cc.precision = compute::Precision::kInt8;
  cc.winograd = true;
  const compute::InferenceScope scope(cc);
  {
    // One warm forward builds every layer's plan/packs; the timed loop is
    // the steady-state eval pass.
    Tensor y = model.forward(x, /*train=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  double elapsed = 0.0;
  for (auto _ : state) {
    const double t0 = obs::now_s();
    Tensor y = model.forward(x, /*train=*/false);
    elapsed += obs::now_s() - t0;
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
  state.counters["speedup_vs_fp32"] =
      fp32_s / (elapsed / static_cast<double>(state.iterations()));
  state.SetLabel(qgemm_kernel_name());
}
BENCHMARK(BM_EvalForwardInt8Winograd);

// Full train step (forward + loss grad + backward) of the Tiny-VGG used by
// the accuracy plane; items/s is samples/s of local-training throughput.
void BM_TrainStep(benchmark::State& state) {
  Rng rng(8);
  models::BuiltModel model(models::tiny_vgg_spec(16, 10, 4), rng);
  const std::int64_t batch = 16;
  const Tensor x = Tensor::randn({batch, 3, 16, 16}, rng);
  std::vector<std::int64_t> y(batch);
  for (std::int64_t i = 0; i < batch; ++i) y[i] = i % 10;
  for (auto _ : state) {
    model.zero_grad_range(0, model.num_atoms());
    const Tensor logits = model.forward(x, true);
    Tensor gx = model.backward_range(0, model.num_atoms(),
                                     cross_entropy_grad(logits, y));
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TrainStep);

void BM_BatchNormForward(benchmark::State& state) {
  Rng rng(4);
  nn::BatchNorm2d bn(32);
  const Tensor x = Tensor::randn({16, 32, 8, 8}, rng);
  for (auto _ : state) {
    Tensor y = bn.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BatchNormForward);

void BM_PgdStep(benchmark::State& state) {
  Rng rng(5);
  models::BuiltModel model(models::tiny_vgg_spec(16, 10, 4), rng);
  const Tensor x = Tensor::rand_uniform({8, 3, 16, 16}, rng, 0, 1);
  const std::vector<std::int64_t> y{0, 1, 2, 3, 4, 5, 6, 7};
  attack::PgdConfig cfg;
  cfg.steps = 1;
  auto fn = [&model](const Tensor& xx, const std::vector<std::int64_t>& yy,
                     Tensor* g) {
    const Tensor logits = model.forward(xx, false);
    const float loss = cross_entropy(logits, yy);
    if (g)
      *g = model.backward_range(0, model.num_atoms(),
                                cross_entropy_grad(logits, yy));
    return loss;
  };
  for (auto _ : state) {
    Tensor adv = attack::pgd(fn, x, y, cfg, rng);
    benchmark::DoNotOptimize(adv.data());
  }
}
BENCHMARK(BM_PgdStep);

// The backward of one attack step on Tiny-VGG at batch 32: Arg(0) is the full
// backward_range (parameter gradients accumulated), Arg(1) the same call
// under InputGradScope, as attack::pgd/apgd/fgsm run it. The gap is the
// parameter-gradient work (weight GEMMs, bias and BN reductions) it skips.
void BM_AttackBackward(benchmark::State& state) {
  Rng rng(9);
  models::BuiltModel model(models::tiny_vgg_spec(), rng);
  const std::int64_t batch = 32;
  const Tensor x = Tensor::rand_uniform({batch, 3, 16, 16}, rng, 0, 1);
  std::vector<std::int64_t> y(batch);
  for (std::int64_t i = 0; i < batch; ++i) y[i] = i % 10;
  const Tensor glogits = cross_entropy_grad(model.forward(x, false), y);
  std::optional<compute::InputGradScope> scope;
  if (state.range(0) == 1) scope.emplace();
  for (auto _ : state) {
    Tensor gx = model.backward_range(0, model.num_atoms(), glogits);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(scope ? "input_grad_only" : "full");
}
BENCHMARK(BM_AttackBackward)->Arg(0)->Arg(1);

// One eval-mode attack step's loss and input gradient on Tiny-VGG at batch
// 96: Arg(0) is model_ce_lossgrad on the one model, its kernels parallel
// inside each GEMM; Arg(1) the sample-sharded LossGradFn, one replica per
// pool thread over a row shard each (attack/sharded.hpp). Both return the
// same bytes. Wall time, since the sharded work runs on the pool threads.
void BM_EvalLossGrad(benchmark::State& state) {
  Rng rng(10);
  models::BuiltModel model(models::tiny_vgg_spec(), rng);
  const std::int64_t batch = 96;
  const Tensor x = Tensor::rand_uniform({batch, 3, 16, 16}, rng, 0, 1);
  std::vector<std::int64_t> y(batch);
  for (std::int64_t i = 0; i < batch; ++i) y[i] = i % 10;
  const bool sharded = state.range(0) == 1;
  const attack::LossGradFn fn =
      sharded ? attack::shard_model(model, attack::eval_shards(batch))
                    .lossgrad(cross_entropy, cross_entropy_grad)
              : attack::model_ce_lossgrad(model);
  const compute::InputGradScope scope;
  Tensor gx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(x, y, &gx));
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(sharded ? "sharded" : "plain");
}
BENCHMARK(BM_EvalLossGrad)->Arg(0)->Arg(1)->UseRealTime();

void BM_PartialAverage(benchmark::State& state) {
  Rng rng(6);
  const auto spec = models::tiny_vgg_spec(16, 10, 8);
  models::BuiltModel global(spec, rng), trained(spec, rng);
  fed::PartialAccumulator acc(global);
  for (auto _ : state) {
    acc.reset();
    for (std::size_t a = 0; a < global.num_atoms(); ++a)
      acc.add_dense_atom(trained, a, 1.0f);
    acc.finalize_into(global);
    benchmark::DoNotOptimize(global.save_atom(0).data());
  }
}
BENCHMARK(BM_PartialAverage);

}  // namespace

// BENCHMARK_MAIN, plus the repo's FP_BENCH_OUT convention: when set, the run
// also writes a CSV of every row (fed::export_history_path-style artifact
// export; the CI smoke archives it).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag;
  if (const char* out = std::getenv("FP_BENCH_OUT")) {
    out_flag = std::string("--benchmark_out=") + out;
    fmt_flag = "--benchmark_out_format=csv";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
