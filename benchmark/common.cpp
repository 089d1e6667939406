#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "bench.hpp"
#include "trace.hpp"
#include "lhd/synth/builder.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/util/rng.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::bench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

ItemTimes time_items(double seconds, double warm_seconds,
                     std::size_t min_items, Tracer* tracer,
                     const std::function<double()>& once) {
  set_active_tracer(nullptr);
  if (warm_seconds > 0.0) {
    const double warm_end = now_seconds() + warm_seconds;
    do {
      (void)once();
    } while (now_seconds() < warm_end);
  }
  ItemTimes times;
  const double end = now_seconds() + seconds;
  for (std::size_t i = 0; i < min_items || now_seconds() < end; ++i) {
    const bool traced = tracer != nullptr && i % 2 == 1;
    set_active_tracer(traced ? tracer : nullptr);
    (traced ? times.traced : times.untraced).push_back(once());
  }
  set_active_tracer(tracer);
  return times;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + purpose);
  return rng.next_u64();
}

data::Dataset build_split(std::uint64_t seed, int count, int stream) {
  const synth::SuiteSpec& spec = synth::suite_by_name("B2");
  const std::uint64_t suite_seed = spec.seed ^ seed;
  return synth::build_clips(spec.style, count,
                            suite_seed * 2 + 1 + static_cast<std::uint64_t>(stream),
                            stream == 0 ? "bench_train" : "bench_test");
}

int bench_split_size(const Options& opt) { return opt.smoke ? 48 : 256; }

core::CnnDetectorConfig bench_model_config(const Options& opt) {
  core::CnnDetectorConfig config;
  config.train.epochs = opt.smoke ? 1 : 2;
  config.augment_factor = 1;
  return config;
}

std::shared_ptr<core::CnnDetector> train_bench_model(
    const data::Dataset& train, const Options& opt) {
  auto model = std::make_shared<core::CnnDetector>("bench",
                                                   bench_model_config(opt));
  model->train(train);
  return model;
}

gds::Library build_bench_chip(int tiles, int variants, std::uint64_t seed) {
  synth::StyleConfig style = synth::suite_by_name("B2").style;
  style.p_risky_site = 0.25;  // the full-chip scan style of bench/fig8_scan
  return synth::build_chip(style, tiles, tiles, seed, variants);
}

std::size_t scan_threads() {
  return std::min<std::size_t>(hardware_threads(), 4);
}

std::vector<geom::Rect> sample_windows(const geom::Rect& extent,
                                       std::size_t n, std::uint64_t seed) {
  const auto steps = [](geom::Coord size) {
    return size <= 0 ? std::size_t{0}
                     : static_cast<std::size_t>((size + kStrideNm - 1) /
                                                kStrideNm);
  };
  const std::size_t nx = steps(extent.width());
  const std::size_t total = nx * steps(extent.height());
  std::vector<std::size_t> picks;
  if (total <= n) {
    picks.resize(total);
    for (std::size_t i = 0; i < total; ++i) picks[i] = i;
  } else {
    Rng rng(seed);
    std::unordered_set<std::size_t> seen;
    while (picks.size() < n) {
      const auto i = static_cast<std::size_t>(rng.next_below(total));
      if (seen.insert(i).second) picks.push_back(i);
    }
    std::sort(picks.begin(), picks.end());
  }
  std::vector<geom::Rect> windows;
  windows.reserve(picks.size());
  for (const std::size_t i : picks) {
    const geom::Coord x =
        extent.xlo + static_cast<geom::Coord>(i % nx) * kStrideNm;
    const geom::Coord y =
        extent.ylo + static_cast<geom::Coord>(i / nx) * kStrideNm;
    windows.emplace_back(x, y, x + kWindowNm, y + kWindowNm);
  }
  return windows;
}

}  // namespace lhd::bench
