// Kernel-level micro benchmarks: rasterization, Gaussian imaging, resist
// thresholding, hotspot-oracle labeling, CNN forward/backward, the nn
// layer forwards, the conv backward, and two production kernels against
// their testkit references — the block DCT tensor (BM_DctTensor vs
// BM_DctTensorRef) and the blocked GEMM (BM_GemmFast vs BM_GemmRef, per
// shape) — so each speedup is measured.
//
// Alongside the console output every run lands as one phase in
// BENCH_micro_kernels.json (obs::RunReport): name, real/CPU ns per
// iteration, iteration count. Pass --report=<path> to redirect, --report=
// to disable. The speedup story these numbers feed is told in
// docs/PERFORMANCE.md; EXPERIMENTS.md records measured values.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "benchmark_report.hpp"
#include "common.hpp"
#include "lhd/feature/dct.hpp"
#include "lhd/litho/oracle.hpp"
#include "lhd/nn/gemm.hpp"
#include "lhd/nn/layers.hpp"
#include "lhd/nn/loss.hpp"
#include "lhd/nn/network.hpp"
#include "lhd/synth/clip_gen.hpp"
#include "lhd/testkit/oracle.hpp"
#include "lhd/util/log.hpp"

namespace {

using namespace lhd;

const std::vector<geom::Rect>& sample_rects() {
  static const std::vector<geom::Rect> rects = [] {
    set_log_level(LogLevel::Warn);
    synth::StyleConfig style;
    Rng rng(5);
    return synth::generate_clip(style, rng);
  }();
  return rects;
}

const geom::FloatImage& sample_mask() {
  static const geom::FloatImage mask = geom::rasterize(sample_rects(), 1024, 8);
  return mask;
}

void BM_Rasterize128(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::rasterize(sample_rects(), 1024, 8));
  }
}
BENCHMARK(BM_Rasterize128);

void BM_GaussianBlurMain(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(litho::gaussian_blur(sample_mask(), 25.0 / 8));
  }
}
BENCHMARK(BM_GaussianBlurMain);

void BM_AerialImage(benchmark::State& state) {
  const litho::LithoSimulator sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.aerial(sample_mask(), 0.0));
  }
}
BENCHMARK(BM_AerialImage);

void BM_OracleLabelClip(benchmark::State& state) {
  const litho::HotspotOracle oracle{litho::OracleConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.evaluate(sample_mask()));
  }
}
BENCHMARK(BM_OracleLabelClip);

/// The 16-channel DCT feature tensor of one 128×128 raster. BM_DctTensor
/// is the production row-panel kernel, BM_DctTensorRef the testkit
/// block-at-a-time reference it is bit-identical to.
void BM_DctTensor(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        feature::dct_tensor_from_raster(sample_mask(), {}));
  }
}
BENCHMARK(BM_DctTensor);

void BM_DctTensorRef(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testkit::dct_tensor_reference(sample_mask(), {}));
  }
}
BENCHMARK(BM_DctTensorRef);

void BM_ConnectedComponents(benchmark::State& state) {
  const auto target = geom::binarize(sample_mask(), 0.5f);
  for (auto _ : state) {
    int n = 0;
    benchmark::DoNotOptimize(geom::connected_components(target, &n));
  }
}
BENCHMARK(BM_ConnectedComponents);

// ------------------------------------------------------------ nn kernels --
//
// Shapes are the hotspot CNN's own layers at the fig8/table3
// configuration (16 input channels, 16×16 grid) plus tails. The GEMM runs
// as a Fast/Ref pair over the same shapes; the ratio of a pair's
// ns_per_iter is the speedup quoted in docs/PERFORMANCE.md.

void fill_tensor(Rng& rng, nn::Tensor& t) {
  for (auto& v : t.storage()) v = static_cast<float>(rng.next_double());
}

/// Raw GEMM C += A·B at (m, n, k) = (range 0, 1, 2). Fast is the blocked
/// packed kernel, Ref the testkit reference triple loop.
void run_gemm(benchmark::State& state, bool blocked) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto zm = static_cast<std::size_t>(m);
  const auto zn = static_cast<std::size_t>(n);
  const auto zk = static_cast<std::size_t>(k);
  Rng rng(3);
  std::vector<float> a(zm * zk), b(zk * zn), c(zm * zn);
  for (auto& v : a) v = static_cast<float>(rng.next_double());
  for (auto& v : b) v = static_cast<float>(rng.next_double());
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    if (blocked) {
      nn::gemm(m, n, k, a.data(), k, b.data(), n, false, c.data(), n);
    } else {
      testkit::gemm_reference(m, n, k, a.data(), k, b.data(), n, false,
                              c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["gflop_per_s"] = benchmark::Counter(
      2.0 * m * n * k, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_GemmFast(benchmark::State& state) { run_gemm(state, true); }
void BM_GemmRef(benchmark::State& state) { run_gemm(state, false); }
// conv1 lowering (m=out_c, k=in_c·3·3, n=batch·16·16), conv3 lowering
// after two pools, the FC1 shape, and a square reference point.
#define LHD_GEMM_SHAPES                                              \
  Args({24, 8192, 144})->Args({32, 2048, 216})->Args({32, 64, 512}) \
      ->Args({256, 256, 256})
BENCHMARK(BM_GemmFast)->LHD_GEMM_SHAPES;
BENCHMARK(BM_GemmRef)->LHD_GEMM_SHAPES;
#undef LHD_GEMM_SHAPES

/// Conv2d forward at {in_c, out_c, side, batch} = ranges 0..3.
void BM_ConvForwardFast(benchmark::State& state) {
  const int in_c = static_cast<int>(state.range(0));
  const int out_c = static_cast<int>(state.range(1));
  const int side = static_cast<int>(state.range(2));
  const int batch = static_cast<int>(state.range(3));
  nn::Conv2d conv(in_c, out_c, 3, 1);
  Rng rng(7);
  conv.init(rng);
  nn::Tensor in({batch, in_c, side, side});
  fill_tensor(rng, in);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.infer(in));
  }
}
// The hotspot CNN's three conv layers at grid 16, batch 1 and batch 32.
BENCHMARK(BM_ConvForwardFast)
    ->Args({16, 24, 16, 1})
    ->Args({16, 24, 16, 32})
    ->Args({24, 24, 16, 32})
    ->Args({24, 32, 8, 32});

/// Conv2d backward at {in_c, out_c, side, batch, input_grad} = ranges
/// 0..4, off one training forward: the weight/bias gradients always, the
/// input gradient (dcol GEMM + col2im) only when input_grad is 1.
void BM_ConvBackward(benchmark::State& state) {
  const int in_c = static_cast<int>(state.range(0));
  const int out_c = static_cast<int>(state.range(1));
  const int side = static_cast<int>(state.range(2));
  const int batch = static_cast<int>(state.range(3));
  const bool input_grad = state.range(4) != 0;
  nn::Conv2d conv(in_c, out_c, 3, 1);
  Rng rng(11);
  conv.init(rng);
  nn::Tensor in({batch, in_c, side, side});
  fill_tensor(rng, in);
  nn::Tensor gout(conv.forward(in, true).shape());
  fill_tensor(rng, gout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(gout, input_grad));
  }
}
// The hotspot CNN's three conv layers at grid 16, batch 32, each with its
// input gradient, plus conv1 as Network::backward runs it (no input
// gradient: it is the first layer).
BENCHMARK(BM_ConvBackward)
    ->Args({16, 24, 16, 32, 1})
    ->Args({16, 24, 16, 32, 0})
    ->Args({24, 24, 16, 32, 1})
    ->Args({24, 32, 8, 32, 1});

/// Linear forward at {in_f, out_f, batch} = ranges 0..2.
void BM_LinearForwardFast(benchmark::State& state) {
  const int in_f = static_cast<int>(state.range(0));
  const int out_f = static_cast<int>(state.range(1));
  const int batch = static_cast<int>(state.range(2));
  nn::Linear lin(in_f, out_f);
  Rng rng(9);
  lin.init(rng);
  nn::Tensor in({batch, in_f});
  fill_tensor(rng, in);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lin.infer(in));
  }
}
// FC1 and the classifier head, single sample and batch 32.
BENCHMARK(BM_LinearForwardFast)
    ->Args({512, 64, 1})
    ->Args({512, 64, 32})
    ->Args({64, 2, 1})
    ->Args({64, 2, 32});

/// Whole hotspot-CNN inference, batch = range 0 — the end-to-end number
/// the per-layer rows above decompose.
void BM_CnnForwardFast(benchmark::State& state) {
  nn::Network net = nn::make_hotspot_cnn(16, 16);
  Rng rng(1);
  net.init(rng);
  const int batch = static_cast<int>(state.range(0));
  nn::Tensor in({batch, 16, 16, 16});
  fill_tensor(rng, in);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.infer(in));
  }
}
BENCHMARK(BM_CnnForwardFast)->Arg(1)->Arg(32);

void BM_CnnTrainStepBatch32(benchmark::State& state) {
  nn::Network net = nn::make_hotspot_cnn(16, 16);
  Rng rng(1);
  net.init(rng);
  nn::Tensor in({32, 16, 16, 16});
  fill_tensor(rng, in);
  nn::Tensor targets({32, 2});
  for (int s = 0; s < 32; ++s) targets[static_cast<std::size_t>(s) * 2] = 1;
  for (auto _ : state) {
    const auto logits = net.forward(in, true);
    const auto loss = nn::softmax_cross_entropy(logits, targets);
    net.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_CnnTrainStepBatch32);

}  // namespace

int main(int argc, char** argv) {
  // Cli ignores google-benchmark's --benchmark_* flags and vice versa, so
  // both flag styles coexist on one command line.
  const lhd::Cli cli(argc, argv);
  benchmark::Initialize(&argc, argv);
  lhd::obs::RunReport report("micro_kernels", "");
  lhd::bench::CaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  lhd::bench::write_report(report, cli, "micro_kernels");
  return 0;
}
