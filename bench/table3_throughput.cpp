// Table III — feature-extraction and inference throughput (google-benchmark
// micro measurements): μs per clip for each feature, per-clip inference
// cost for a trained detector of each generation, plus the full-chip scan
// primitives (spatial-index window query, sharded scan at 1/2/4 threads).
//
// Alongside the console output, every benchmark lands as one phase in
// BENCH_table3_throughput.json (obs::RunReport): name, total/per-iteration
// real and CPU time, iteration count, plus the global obs registry totals
// accumulated by the instrumented library code under test. Pass
// --report=<path> to redirect, --report= to disable.

#include <benchmark/benchmark.h>

#include "benchmark_report.hpp"
#include "common.hpp"
#include "lhd/core/cnn_detector.hpp"
#include "lhd/core/factory.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/feature/extractor.hpp"
#include "lhd/synth/builder.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/util/log.hpp"

namespace {

using namespace lhd;

const data::Dataset& sample_clips() {
  static const data::Dataset ds = [] {
    set_log_level(LogLevel::Warn);
    synth::SuiteSpec spec = synth::suite_by_name("B2");
    spec.n_train = 64;
    spec.n_test = 0;
    return synth::build_suite(spec, {}).train;
  }();
  return ds;
}

void BM_FeatureDensity(benchmark::State& state) {
  const auto extractor = feature::make_density_extractor();
  const auto& ds = sample_clips();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor->extract(ds[i++ % ds.size()]));
  }
}
BENCHMARK(BM_FeatureDensity);

void BM_FeatureCcas(benchmark::State& state) {
  const auto extractor = feature::make_ccas_extractor();
  const auto& ds = sample_clips();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor->extract(ds[i++ % ds.size()]));
  }
}
BENCHMARK(BM_FeatureCcas);

void BM_FeatureDctTensor(benchmark::State& state) {
  const auto extractor = feature::make_dct_extractor();
  const auto& ds = sample_clips();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor->extract(ds[i++ % ds.size()]));
  }
}
BENCHMARK(BM_FeatureDctTensor);

/// Inference cost per clip for a detector generation. Training happens once
/// in setup on a small set — this measures inference, not model quality.
void run_inference(benchmark::State& state, const std::string& kind) {
  set_log_level(LogLevel::Warn);
  auto det = core::make_detector(kind);
  synth::SuiteSpec spec = synth::suite_by_name("B2");
  spec.n_train = 80;
  spec.n_test = 0;
  const auto built = synth::build_suite(spec, {});
  det->train(built.train);
  const auto& ds = sample_clips();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det->predict(ds[i++ % ds.size()]));
  }
}

void BM_InferencePatternMatch(benchmark::State& state) {
  run_inference(state, "pm");
}
BENCHMARK(BM_InferencePatternMatch);

void BM_InferenceLinearSvm(benchmark::State& state) {
  run_inference(state, "svm");
}
BENCHMARK(BM_InferenceLinearSvm);

void BM_InferenceAdaBoost(benchmark::State& state) {
  run_inference(state, "adaboost");
}
BENCHMARK(BM_InferenceAdaBoost);

void BM_InferenceNaiveBayes(benchmark::State& state) {
  run_inference(state, "nb");
}
BENCHMARK(BM_InferenceNaiveBayes);

void BM_InferenceCnn(benchmark::State& state) {
  // Use a fast-training CNN config: inference cost is what's measured and
  // it does not depend on how long we trained.
  set_log_level(LogLevel::Warn);
  core::CnnDetectorConfig cfg;
  cfg.train.epochs = 2;
  cfg.augment_factor = 1;
  core::CnnDetector det("cnn", cfg);
  synth::SuiteSpec spec = synth::suite_by_name("B2");
  spec.n_train = 60;
  spec.n_test = 0;
  const auto built = synth::build_suite(spec, {});
  det.train(built.train);
  const auto& ds = sample_clips();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.predict(ds[i++ % ds.size()]));
  }
}
BENCHMARK(BM_InferenceCnn);

// ------------------------------------------------------- full-chip scan --

const core::ChipIndex& sample_chip() {
  static const core::ChipIndex index = [] {
    set_log_level(LogLevel::Warn);
    synth::StyleConfig style = synth::suite_by_name("B2").style;
    style.p_risky_site = 0.25;
    // 4 tile variants arrayed as a 2x2 macro: the dedup benchmark rows need
    // a chip with the cell reuse real layouts have.
    return core::ChipIndex::from_library(
        synth::build_chip(style, 4, 4, 77, /*tile_variants=*/4), "TOP",
        synth::kChipLayer);
  }();
  return index;
}

/// Window extraction cost with a reused per-thread scratch — the fixed
/// overhead every scan pays per window before any classification.
void BM_ChipIndexQuery(benchmark::State& state) {
  const auto& index = sample_chip();
  const geom::Rect extent = index.extent();
  core::ChipIndex::QueryScratch scratch;
  geom::Coord x = extent.xlo, y = extent.ylo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.query(geom::Rect(x, y, x + 1024, y + 1024), scratch));
    x += 512;
    if (x >= extent.xhi) {
      x = extent.xlo;
      y += 512;
      if (y >= extent.yhi) y = extent.ylo;
    }
  }
}
BENCHMARK(BM_ChipIndexQuery);

/// Whole-scan throughput vs ScanConfig::threads (pattern-match detector so
/// the scan scaffolding, not CNN inference, dominates), with and without
/// clip deduplication (args: threads, dedup). Shards run on the
/// process-wide pool; on a single-core host all thread counts coincide.
/// Cache hit/miss totals accumulate into the obs registry and land in the
/// report via capture_registry().
void BM_ScanChipPatternMatch(benchmark::State& state) {
  set_log_level(LogLevel::Warn);
  static const auto det = [] {
    auto d = core::make_detector("pm");
    synth::SuiteSpec spec = synth::suite_by_name("B2");
    spec.n_train = 64;
    spec.n_test = 0;
    d->train(synth::build_suite(spec, {}).train);
    return d;
  }();
  const auto& index = sample_chip();
  core::ScanConfig cfg;
  cfg.window_nm = synth::suite_by_name("B2").style.window_nm;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.dedup = state.range(1) != 0;
  std::size_t classified = 0;
  for (auto _ : state) {
    const auto result = core::scan_chip(index, *det, cfg);
    classified = result.windows_classified;
    benchmark::DoNotOptimize(result);
  }
  state.counters["classified"] =
      benchmark::Counter(static_cast<double>(classified));
}
BENCHMARK(BM_ScanChipPatternMatch)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Cli ignores google-benchmark's --benchmark_* flags and vice versa, so
  // both flag styles coexist on one command line.
  const lhd::Cli cli(argc, argv);
  benchmark::Initialize(&argc, argv);
  lhd::obs::RunReport report("table3_throughput", "B2");
  lhd::bench::CaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  lhd::bench::write_report(report, cli, "table3_throughput");
  return 0;
}
