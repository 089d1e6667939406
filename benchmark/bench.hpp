#pragma once
// Shared declarations of lhd_bench: run options, the result one
// workload run reports, the common set-up steps and small statistics.
//
// A run is: set-up (reported as setup_s), a timed phase of about
// --seconds, then an untimed answer check. Only calls into the library's
// public functions are timed.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lhd/core/cnn_detector.hpp"
#include "lhd/data/dataset.hpp"
#include "lhd/gds/model.hpp"
#include "lhd/obs/json.hpp"

namespace lhd::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< report per-layer metrics instead of end-to-end
  bool smoke = false;     ///< toy sizes, for the ctest smoke set
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// exactly the names BENCHMARK.json lists for that mode.
  std::vector<Metric> metrics;
  /// Exact answers for one seed. `lhd_bench compare` reports any
  /// difference between two sets as "answer changed".
  obs::Json counts = obs::Json::object();
  /// Supporting numbers: sample counts, rates, workload-specific views.
  obs::Json info = obs::Json::object();
  /// Why `correct` is false, one line each.
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

RunResult run_scan_unique(const Options& opt);
RunResult run_scan_periodic_flat(const Options& opt);
RunResult run_scan_periodic_hier(const Options& opt);
RunResult run_serve_hot(const Options& opt);
RunResult run_serve_cold(const Options& opt);
RunResult run_train(const Options& opt);

class Tracer;

/// Item times of one run; `traced` is empty unless the run is traced.
struct ItemTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Times work items: calls `once` (which returns the seconds it timed)
/// for `warm_seconds` untimed, then until `seconds` have passed and at
/// least `min_items` times. With a tracer, items alternate between
/// untraced and traced, so that both kinds see the same machine state;
/// the tracer is left active for the layer probe that follows.
ItemTimes time_items(double seconds, double warm_seconds,
                     std::size_t min_items, Tracer* tracer,
                     const std::function<double()>& once);

/// `lhd_bench compare`: judges set B against set A with the end-to-end
/// bounds of `benchmark_json`; returns the exit status (1 when an exact
/// count changed).
int compare_sets(const std::string& set_a, const std::string& set_b,
                 const std::string& benchmark_json);

// --- statistics and clocks ---------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Seconds since an arbitrary fixed point (steady clock).
double now_seconds();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// --- set-up ------------------------------------------------------------------

/// Builds a workload's inputs `times` times (3, or 1 for traced and smoke
/// runs) and keeps the last; `median_seconds` is what setup_s reports.
/// Repeating keeps one slow set-up from moving the metric. The previous
/// inputs are freed before the next build, so peak memory is one set-up's.
template <typename T>
std::unique_ptr<T> repeated_setup(const Options& opt, double& median_seconds,
                                  const std::function<std::unique_ptr<T>()>& make) {
  const int times = opt.trace || opt.smoke ? 1 : 3;
  std::vector<double> seconds;
  std::unique_ptr<T> inputs;
  for (int i = 0; i < times; ++i) {
    inputs.reset();
    const double t0 = now_seconds();
    inputs = make();
    seconds.push_back(now_seconds() - t0);
  }
  median_seconds = median(std::move(seconds));
  return inputs;
}

/// `count` B2-style labelled clips (generated, GDS round-tripped,
/// litho-labelled) in memory — no on-disk suite cache, so every set-up
/// pays the same. Seeded by the B2 suite seed XOR `seed`; `stream` 0 is
/// the train split, 1 the test split.
data::Dataset build_split(std::uint64_t seed, int count, int stream);

/// The CNN the scan and serve workloads score with: trained on `train`
/// for a short fixed schedule. Its quality is not what these workloads
/// measure, only the cost of running it.
std::shared_ptr<core::CnnDetector> train_bench_model(
    const data::Dataset& train, const Options& opt);

/// Configuration of the bench model (reloading its weights needs it).
core::CnnDetectorConfig bench_model_config(const Options& opt);

/// Clip count of the split the bench model trains on.
int bench_split_size(const Options& opt);

/// A chip of tiles x tiles B2-style generated tiles, seeded by `seed`.
/// `variants` > 0 arrays that many distinct tiles as a periodic macro;
/// 0 makes every tile unique.
gds::Library build_bench_chip(int tiles, int variants, std::uint64_t seed);

/// Untimed full-load warm-up before a scan or serve workload is timed: on
/// a shared virtual machine throughput ramps up over the first seconds of
/// full load.
inline constexpr double kWarmSeconds = 2.0;

/// Answers each run recomputes in its untimed check.
inline constexpr std::size_t kCheckedAnswers = 1024;

/// Window side and stride every workload cuts and scans with.
inline constexpr geom::Coord kWindowNm = 1024;
inline constexpr geom::Coord kStrideNm = 512;

/// Scan threads: min(hardware threads, 4).
std::size_t scan_threads();

/// Up to `n` distinct windows of the scan grid (kWindowNm at kStrideNm,
/// the grid scan_chip walks) over `extent`, drawn with `seed`, in
/// row-major order.
std::vector<geom::Rect> sample_windows(const geom::Rect& extent,
                                       std::size_t n, std::uint64_t seed);

/// A seeded stream derived from the run seed, one per purpose, so adding
/// a draw in one place does not shift the inputs of another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

}  // namespace lhd::bench
