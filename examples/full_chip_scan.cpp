// Full-chip hotspot scanning — the deployment scenario: train once, then
// sweep a trained detector across an entire (synthetic) chip using the
// two-stage flow (cheap pattern-match prefilter, CNN refinement) and
// compare it against the naive CNN-only sliding window, serial and
// parallel (the hit lists are bit-identical across thread counts).
//
// Run:  ./full_chip_scan [--tiles=8] [--variants=4] [--stride=512]
//                        [--train=300]
//                        [--threads=0]   (0 = one shard per hardware thread)
//                        [--report=BENCH_full_chip_scan.json]  (empty = off)
//
// Besides the console narrative, the run serializes its phases (train,
// each scan flow) and the global obs registry totals to a deterministic
// JSON run report — the same schema the bench harnesses emit.

#include <iostream>
#include <thread>

#include "lhd/core/factory.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/obs/obs.hpp"
#include "lhd/synth/builder.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/util/cli.hpp"
#include "lhd/util/log.hpp"
#include "lhd/util/stopwatch.hpp"

namespace {

/// One scan flow -> one report phase with its deterministic tallies.
void report_scan(lhd::obs::RunReport& report, const std::string& name,
                 const lhd::core::ScanResult& r, std::size_t threads,
                 bool dedup = false) {
  using lhd::obs::Json;
  Json extra = Json::object();
  extra["threads"] = static_cast<long long>(threads);
  extra["dedup"] = dedup;
  extra["windows_total"] = static_cast<long long>(r.windows_total);
  extra["windows_classified"] = static_cast<long long>(r.windows_classified);
  extra["flagged"] = static_cast<long long>(r.flagged);
  extra["shard_count"] = static_cast<long long>(r.shards.size());
  if (dedup) {
    extra["cache_hits"] = static_cast<long long>(r.cache_hits);
    extra["cache_misses"] = static_cast<long long>(r.cache_misses);
    extra["cache_evictions"] = static_cast<long long>(r.cache_evictions);
  }
  report.add_phase(name, r.seconds, std::move(extra));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lhd;
  const Cli cli(argc, argv);
  set_log_level(LogLevel::Info);

  // Train the two stages on the B2 style.
  synth::SuiteSpec spec = synth::suite_by_name("B2");
  spec.n_train = static_cast<int>(cli.get_int("train", 300));
  spec.n_test = 0;
  std::cout << "building training data + training both stages...\n";
  obs::RunReport report("full_chip_scan", "B2");
  Stopwatch train_sw;
  const auto suite = synth::build_suite(spec, {});
  auto prefilter = core::make_detector("pm");
  prefilter->train(suite.train);
  auto refiner = core::make_detector("cnn");
  refiner->train(suite.train);
  report.add_phase("build+train", train_sw.seconds());

  // Build a chip and index it for window queries.
  const int tiles = static_cast<int>(cli.get_int("tiles", 8));
  // --variants distinct tiles arrayed as a repeating macro (cell reuse) —
  // the pattern redundancy the dedup scan below feeds on; 0 = all unique.
  const int variants = static_cast<int>(cli.get_int("variants", 4));
  synth::StyleConfig chip_style = spec.style;
  chip_style.p_risky_site = 0.2;
  std::cout << "generating a " << tiles << "x" << tiles << " tile chip...\n";
  const gds::Library chip =
      synth::build_chip(chip_style, tiles, tiles, 77, variants);
  const auto index =
      core::ChipIndex::from_library(chip, "TOP", synth::kChipLayer);
  std::cout << "  " << index.rect_count() << " rectangles, extent "
            << index.extent().width() / 1000.0 << " x "
            << index.extent().height() / 1000.0 << " um\n";

  core::ScanConfig scan_cfg;
  scan_cfg.window_nm = chip_style.window_nm;
  scan_cfg.stride_nm = static_cast<geom::Coord>(cli.get_int("stride", 512));
  // Non-positive --threads means "auto": one shard per hardware thread.
  const long long threads_arg = cli.get_int("threads", 0);
  std::size_t threads = threads_arg > 0
                            ? static_cast<std::size_t>(threads_arg)
                            : std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency());

  report.set_config("tiles", static_cast<long long>(tiles));
  report.set_config("tile_variants", static_cast<long long>(variants));
  report.set_config("stride_nm",
                    static_cast<long long>(scan_cfg.stride_nm));
  report.set_config("window_nm",
                    static_cast<long long>(scan_cfg.window_nm));
  report.set_config("threads", static_cast<long long>(threads));
  report.set_config("obs_enabled", obs::enabled());

  std::cout << "\nscanning (CNN only, serial)...\n";
  scan_cfg.threads = 1;
  const auto single = core::scan_chip(index, *refiner, scan_cfg);
  std::cout << "  " << single.windows_total << " windows, "
            << single.windows_classified << " classified, " << single.flagged
            << " flagged, " << single.seconds << " s\n";
  report_scan(report, "cnn-only serial", single, 1);

  scan_cfg.threads = threads;
  if (threads > 1) {
    std::cout << "scanning (CNN only, " << threads << " threads)...\n";
    const auto par = core::scan_chip(index, *refiner, scan_cfg);
    std::cout << "  " << par.windows_total << " windows, "
              << par.windows_classified << " classified, " << par.flagged
              << " flagged, " << par.seconds << " s ("
              << single.seconds / par.seconds << "x speedup, hits "
              << (par.hits == single.hits ? "identical" : "DIFFER!") << ")\n";
    report_scan(report, "cnn-only parallel", par, threads);
  }

  // Dedup scores each distinct window clip once, keyed on its exact
  // window-local geometry, so its hits must equal the plain scan's — for
  // the CNN too (see the dedup parity property test).
  std::cout << "scanning (CNN only, dedup cache, " << threads
            << (threads == 1 ? " thread" : " threads") << ")...\n";
  scan_cfg.dedup = true;
  const auto dedup = core::scan_chip(index, *refiner, scan_cfg);
  const auto probes = dedup.cache_hits + dedup.cache_misses;
  std::cout << "  " << dedup.windows_total << " windows, "
            << dedup.windows_classified << " detector invocations (vs "
            << single.windows_classified << " naive), " << dedup.flagged
            << " flagged (vs " << single.flagged << "), " << dedup.seconds
            << " s, " << dedup.cache_hits << "/" << probes
            << " cache hits, hits "
            << (dedup.hits == single.hits ? "identical" : "DIFFER!") << "\n";
  report_scan(report, "cnn-only dedup", dedup, threads, true);
  scan_cfg.dedup = false;

  std::cout << "scanning (pattern-match prefilter -> CNN, " << threads
            << (threads == 1 ? " thread" : " threads") << ")...\n";
  const auto two =
      core::scan_chip_two_stage(index, *prefilter, *refiner, scan_cfg);
  std::cout << "  " << two.windows_total << " windows, "
            << two.windows_classified << " refined, " << two.flagged
            << " flagged, " << two.seconds << " s\n";
  report_scan(report, "pm->cnn two-stage", two, threads);

  std::cout << "\ntop flagged windows (score-sorted):\n";
  auto hits = two.hits;
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  for (std::size_t i = 0; i < hits.size() && i < 10; ++i) {
    std::cout << "  (" << hits[i].window.xlo << ", " << hits[i].window.ylo
              << ") score " << hits[i].score << "\n";
  }

  const std::string report_path =
      cli.get_string("report", "BENCH_full_chip_scan.json");
  if (!report_path.empty()) {
    report.capture_registry();
    report.write(report_path);
  }
  return 0;
}
