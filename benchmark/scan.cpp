// Full-chip scan workloads. One work item is one whole chip scan — library
// in hand to hit list — on min(nproc, 4) threads with the default window
// and stride.
//
//   scan_unique         32x32 unique tiles, plain scan_chip (dedup off):
//                       every window pays query, raster, DCT and a batch-1
//                       forward; the memo and replay code does nothing.
//   scan_periodic_flat  256x256 tiles of 4 variants, scan_chip with dedup:
//                       ~85 detector calls, the time goes to flatten,
//                       index build, query and canonicalize + probe.
//   scan_periodic_hier  the same chip through scan_library(hierarchical,
//                       dedup): instance enumeration and replay skip
//                       flatten, query and canonicalize.

#include <optional>

#include "bench.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/data/clip_hash.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "probe.hpp"

namespace lhd::bench {

namespace {

struct ScanShape {
  int tiles = 0;
  int variants = 0;
  bool dedup = false;
  bool hierarchical = false;
};

struct ScanInputs {
  data::Dataset split;
  std::shared_ptr<core::CnnDetector> model;
  gds::Library chip;
};

constexpr std::size_t kMinReps = 3;
constexpr std::uint64_t kPeriodicChipSeed = 1256;
constexpr std::size_t kThresholdWindows = 256;

data::Clip window_clip(std::vector<geom::Rect> rects) {
  data::Clip clip;
  clip.rects = std::move(rects);
  clip.window_nm = kWindowNm;
  return clip;
}

/// The score the scan promises for a non-empty window: the window's own
/// clip on the plain path, its canonical clip under dedup (the memo key
/// the scan scores, see data/clip_hash.hpp).
float promised_score(const core::Detector& det,
                     const std::vector<geom::Rect>& rects, bool dedup) {
  if (!dedup) return det.score(window_clip(rects));
  return det.score(window_clip(data::canonical_clip(rects, kWindowNm).rects));
}

std::unique_ptr<ScanInputs> setup_scan(const Options& opt,
                                       const ScanShape& shape) {
  auto in = std::make_unique<ScanInputs>();
  in->split = build_split(opt.seed, bench_split_size(opt), 0);
  in->model = train_bench_model(in->split, opt);
  // The periodic chip's four tiles are the same for every seed: with so
  // few distinct tiles the chip's size, and with it every metric of these
  // workloads, would swing with the seed (64 to 80 rects per 2x2 macro
  // over five seeds). The seed still varies the model, the threshold and
  // the sampled windows.
  const std::uint64_t chip_seed =
      shape.variants > 0 ? kPeriodicChipSeed : derive_seed(opt.seed, 1);
  in->chip = build_bench_chip(shape.tiles, shape.variants, chip_seed);
  // Threshold at the 90th percentile of the scores this scan produces, so
  // about a tenth of the windows are hits. The sample comes from the top-
  // left 32x32 tiles, which build_chip generates identically for every
  // chip size (and which hold all content of a periodic chip).
  const gds::Library corner = build_bench_chip(
      std::min(shape.tiles, 32), shape.variants, chip_seed);
  const core::ChipIndex index =
      core::ChipIndex::from_library(corner, "TOP", synth::kChipLayer);
  std::vector<double> scores;
  for (const geom::Rect& w : sample_windows(index.extent(), kThresholdWindows,
                                            derive_seed(opt.seed, 2))) {
    const auto rects = index.query(w);
    if (!rects.empty()) {
      scores.push_back(promised_score(*in->model, rects, shape.dedup));
    }
  }
  in->model->set_threshold(static_cast<float>(quantile(scores, 0.9)));
  return in;
}

/// Recomputes a seeded sample of answers, untimed: each sampled window's
/// clip is scored with Detector::score and compared with == against the
/// hit list. `answer_mismatch` counts windows whose answer differs from
/// scoring the window's exact clip; the program's own contract (exact
/// clip on the plain path, canonical clip under dedup) must hold for
/// every sampled window.
void check_answers(const core::ChipIndex& index, const core::Detector& det,
                   const core::ScanResult& scan, bool dedup,
                   std::uint64_t seed, RunResult& out) {
  const float threshold = det.threshold();
  std::uint64_t mismatch = 0, flagged = 0, broken = 0;
  const auto windows =
      sample_windows(index.extent(), kCheckedAnswers, seed);
  for (const geom::Rect& w : windows) {
    const auto it = std::lower_bound(
        scan.hits.begin(), scan.hits.end(), w,
        [](const core::ScanHit& hit, const geom::Rect& r) {
          return hit.window.ylo != r.ylo ? hit.window.ylo < r.ylo
                                         : hit.window.xlo < r.xlo;
        });
    const bool hit = it != scan.hits.end() && it->window == w;
    flagged += hit;
    const auto rects = index.query(w);
    if (rects.empty()) {  // skip_empty: never a hotspot
      broken += hit;
      mismatch += hit;
      continue;
    }
    const float exact = det.score(window_clip(rects));
    const float promised =
        dedup ? promised_score(det, rects, true) : exact;
    broken += hit != (promised > threshold) || (hit && it->score != promised);
    mismatch += hit != (exact > threshold) || (hit && it->score != exact);
  }
  out.counts["sampled"] = windows.size();
  out.counts["flagged_sampled"] = flagged;
  out.counts["answer_mismatch"] = mismatch;
  if (broken > 0) {
    out.fail(std::to_string(broken) +
             " sampled windows disagree with the scan's own contract");
  }
  if (!dedup && mismatch > 0) {
    out.fail("plain scan: answer_mismatch = " + std::to_string(mismatch));
  }
}

RunResult run_scan(const Options& opt, const ScanShape& shape) {
  RunResult out;
  double setup_s = 0.0;
  const std::unique_ptr<ScanInputs> in = repeated_setup<ScanInputs>(
      opt, setup_s, [&] { return setup_scan(opt, shape); });

  core::ScanConfig config;
  config.window_nm = kWindowNm;
  config.stride_nm = kStrideNm;
  config.threads = scan_threads();
  config.dedup = shape.dedup;
  config.hierarchical = shape.hierarchical;

  core::ScanResult last;
  const auto scan_once = [&] {
    const double t0 = now_seconds();
    core::ScanResult result;
    if (shape.hierarchical) {
      const Span span("core.scan");
      result = core::scan_library(in->chip, "TOP", synth::kChipLayer,
                                  *in->model, config);
    } else {
      // ChipIndex::from_library, in its two steps so each gets a span.
      std::vector<geom::Rect> rects;
      {
        const Span span("gds.flatten");
        rects = in->chip.flatten_layer("TOP", synth::kChipLayer);
      }
      std::optional<core::ChipIndex> index;
      {
        const Span span("core.index_build");
        index.emplace(std::move(rects));
      }
      const Span span("core.scan");
      result = core::scan_chip(*index, *in->model, config);
    }
    const double seconds = now_seconds() - t0;
    out.attempted += result.windows_total;
    last = std::move(result);
    return seconds;
  };

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kTraceCapacity);
  const ItemTimes times =
      time_items(opt.seconds, opt.smoke ? 0.0 : kWarmSeconds,
                 opt.trace ? 2 * kMinReps : kMinReps, tracer.get(), scan_once);
  const std::vector<double>& reps = times.untraced;

  const core::ChipIndex index =
      core::ChipIndex::from_library(in->chip, "TOP", synth::kChipLayer);
  check_answers(index, *in->model, last, shape.dedup,
                derive_seed(opt.seed, 3), out);
  const auto windows = static_cast<double>(last.windows_total);
  const double invocations = static_cast<double>(last.windows_classified);
  const auto probes = static_cast<double>(last.cache_hits + last.cache_misses);
  out.counts["windows_total"] = last.windows_total;
  out.counts["flagged"] = last.flagged;
  // Under dedup the invocation count is schedule-dependent (two shards can
  // race to score one pattern), so only the plain scan's count is exact.
  if (!shape.dedup) out.counts["invocations"] = last.windows_classified;
  out.info["reps"] = reps.size();
  out.info["threads"] = config.threads;
  out.info["rects"] = index.rect_count();
  out.info["invocations"] = last.windows_classified;
  out.info["cache_hits"] = last.cache_hits;
  out.info["cache_misses"] = last.cache_misses;
  out.info["replay_hits"] = last.replay_hits;
  out.info["stitch_windows"] = last.stitch_windows;
  out.info["threshold"] = static_cast<double>(in->model->threshold());

  if (!opt.trace) {
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"throughput_per_s", windows / median(reps), "1/s"},
        {"p50_ms", 1e3 * median(reps), "ms"},
    };
    return out;
  }

  ItemProfile item;
  item.untraced_s = median(reps);
  item.traced_s = median(times.traced);
  item.lanes = static_cast<double>(config.threads);
  const char* forward = shape.dedup ? "nn.forward_b32_us" : "nn.forward_b1_us";
  item.calls = {{"geom.raster_us", invocations},
                {"feature.dct_us", invocations},
                {forward, invocations}};
  if (shape.hierarchical) {
    item.calls["gds.instances_ms"] = 1;
    item.calls["core.query_us"] =
        windows - static_cast<double>(last.replay_hits);
  } else {
    item.calls["gds.flatten_ms"] = 1;
    item.calls["core.index_build_ms"] = 1;
    item.calls["core.query_us"] = windows;
  }
  if (shape.dedup) {
    item.calls["data.canonicalize_us"] = probes;
    item.calls["core.cache_probe_us"] = probes;
  }
  item.invocations = invocations;
  item.probes = probes;
  item.cache_hit_ratio =
      probes > 0 ? static_cast<double>(last.cache_hits) / probes : 0.0;
  item.replay_ratio = static_cast<double>(last.replay_hits) / windows;

  ProbeInputs probe;
  probe.layout = &in->chip;
  probe.windows = sample_windows(index.extent(), kProbeSamples,
                                 derive_seed(opt.seed, 4));
  for (const geom::Rect& w : probe.windows) {
    auto rects = index.query(w);
    if (!rects.empty()) probe.clips.push_back(window_clip(std::move(rects)));
  }
  probe.split = &in->split;
  probe.model = in->model;
  out.metrics = finish_trace(opt, *tracer, probe, item);
  return out;
}

ScanShape periodic(const Options& opt, bool hierarchical) {
  ScanShape shape;
  shape.tiles = opt.smoke ? 4 : 256;
  shape.variants = 4;
  shape.dedup = true;
  shape.hierarchical = hierarchical;
  return shape;
}

}  // namespace

RunResult run_scan_unique(const Options& opt) {
  ScanShape shape;
  shape.tiles = opt.smoke ? 4 : 32;
  return run_scan(opt, shape);
}

RunResult run_scan_periodic_flat(const Options& opt) {
  return run_scan(opt, periodic(opt, false));
}

RunResult run_scan_periodic_hier(const Options& opt) {
  return run_scan(opt, periodic(opt, true));
}

}  // namespace lhd::bench
