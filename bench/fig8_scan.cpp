// Fig. 8 — full-chip scan runtime scaling: windows visited / classified,
// flagged count and wall time for growing chip areas, comparing the
// CNN-only sliding-window flow against the two-stage flow (pattern-match
// prefilter proposing candidates, CNN refining) the survey highlights.
// Each flow also runs serial vs parallel (ScanConfig::threads) to measure
// the scan's thread scaling; hit lists are bit-identical across counts.
//
// Each flow additionally runs with clip deduplication on and off
// (ScanConfig::dedup): dedup keys every window by its exact geometry,
// memoizes scores in a scan-wide ScoreCache, and batches cache misses through
// Detector::score_batch() — "classified" then counts actual detector
// invocations, and the cache hit/miss/eviction tallies land in the report.
//
// Besides the text table, the run serializes to BENCH_fig8_scan.json via
// obs::RunReport: one phase per (tiles, flow, threads, dedup) cell with
// its window/flag tallies plus per-shard wall times, and the global
// registry totals. Structure and tallies are deterministic; only timing
// (and, under dedup, the schedule-dependent classified count) varies.
//
// The chip arrays --tile-variants distinct generated tiles as a repeating
// macro (cell reuse, the redundancy real layouts have and dedup exploits);
// 0 makes every tile unique, which starves the cache.
//
// A hierarchical cell-aware variant (ScanConfig::hierarchical via
// scan_library) runs beside each flattened cell: it scans the structure
// tree directly, replaying per-instance results instead of re-querying
// flattened geometry. Its instance-reuse stats — instances, distinct
// cells, replay hits, stitch windows — land in the report next to the
// flattened dedup numbers so the detector-invocation reduction is
// directly comparable.
//
// Flags: --suite=B2 --max-tiles=16 --stride=512 --threads=0 (0 = all
// cores) --tile-variants=4 --cache-capacity=65536 --batch=32
// --report=<path> (default BENCH_fig8_scan.json, empty disables)

#include <thread>

#include "common.hpp"
#include "lhd/core/factory.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/synth/chip_gen.hpp"

namespace {

/// One scan cell -> one RunReport phase, shard stats included.
void report_scan(lhd::obs::RunReport& report, const std::string& name,
                 const lhd::core::ScanResult& r, int tiles,
                 std::size_t threads, bool dedup) {
  using lhd::obs::Json;
  Json extra = Json::object();
  extra["tiles"] = tiles;
  extra["threads"] = static_cast<long long>(threads);
  extra["dedup"] = dedup;
  extra["windows_total"] = static_cast<long long>(r.windows_total);
  extra["windows_classified"] = static_cast<long long>(r.windows_classified);
  extra["flagged"] = static_cast<long long>(r.flagged);
  if (dedup) {
    extra["cache_hits"] = static_cast<long long>(r.cache_hits);
    extra["cache_misses"] = static_cast<long long>(r.cache_misses);
    extra["cache_evictions"] = static_cast<long long>(r.cache_evictions);
    const auto probes = r.cache_hits + r.cache_misses;
    if (probes > 0) {
      extra["cache_hit_rate"] =
          static_cast<double>(r.cache_hits) / static_cast<double>(probes);
    }
  }
  if (r.windows_total > 0) {
    extra["us_per_window"] =
        1e6 * r.seconds / static_cast<double>(r.windows_total);
  }
  if (r.instances > 0) {
    extra["instances"] = static_cast<long long>(r.instances);
    extra["distinct_cells"] = static_cast<long long>(r.distinct_cells);
    extra["replay_hits"] = static_cast<long long>(r.replay_hits);
    extra["stitch_windows"] = static_cast<long long>(r.stitch_windows);
  }
  Json shards = Json::array();
  for (const auto& shard : r.shards) {
    Json s = Json::object();
    s["windows"] = static_cast<long long>(shard.windows);
    s["seconds"] = shard.seconds;
    s["query_seconds"] = shard.query_seconds;
    shards.push_back(std::move(s));
  }
  extra["shards"] = std::move(shards);
  report.add_phase(name, r.seconds, std::move(extra));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lhd;
  const Cli cli(argc, argv);
  bench::bench_init(cli);
  const std::string suite_name = cli.get_string("suite", "B2");
  const auto suite = bench::load_suite(suite_name, cli);

  LHD_LOG(Info) << "training detectors for the scan...";
  auto prefilter = core::make_detector("pm");
  prefilter->train(suite.train);
  auto cnn = core::make_detector("cnn");
  cnn->train(suite.train);

  const auto& spec = synth::suite_by_name(suite_name);
  core::ScanConfig scan_cfg;
  scan_cfg.window_nm = spec.style.window_nm;
  scan_cfg.stride_nm = static_cast<geom::Coord>(cli.get_int("stride", 512));

  // Non-positive --threads means "auto": one shard per hardware thread.
  const long long threads_arg = cli.get_int("threads", 0);
  const std::size_t parallel_threads =
      threads_arg > 0 ? static_cast<std::size_t>(threads_arg)
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts = {1};
  if (parallel_threads > 1) thread_counts.push_back(parallel_threads);

  scan_cfg.cache_capacity = static_cast<std::size_t>(
      cli.get_int("cache-capacity",
                  static_cast<long long>(scan_cfg.cache_capacity)));
  scan_cfg.batch = static_cast<std::size_t>(
      cli.get_int("batch", static_cast<long long>(scan_cfg.batch)));
  const int tile_variants =
      static_cast<int>(cli.get_int("tile-variants", 4));

  obs::RunReport report("fig8_scan", suite_name);
  report.set_config("window_nm", static_cast<long long>(scan_cfg.window_nm));
  report.set_config("stride_nm", static_cast<long long>(scan_cfg.stride_nm));
  report.set_config("parallel_threads",
                    static_cast<long long>(parallel_threads));
  report.set_config("cache_capacity",
                    static_cast<long long>(scan_cfg.cache_capacity));
  report.set_config("batch", static_cast<long long>(scan_cfg.batch));
  report.set_config("tile_variants", static_cast<long long>(tile_variants));
  report.set_config("obs_enabled", obs::enabled());

  Table table("Fig. 8 — full-chip scan scaling (window " +
              Table::cell(static_cast<long long>(scan_cfg.window_nm)) +
              " nm, stride " +
              Table::cell(static_cast<long long>(scan_cfg.stride_nm)) +
              " nm)");
  table.set_header({"chip tiles", "area mm^2 (scaled)", "flow", "threads",
                    "dedup", "windows", "classified", "flagged", "hit rate",
                    "seconds", "us / window"});

  const long long max_tiles = cli.get_int("max-tiles", 16);
  report.set_config("max_tiles", max_tiles);
  for (int tiles = 4; tiles <= max_tiles; tiles *= 2) {
    synth::StyleConfig chip_style = spec.style;
    chip_style.p_risky_site = 0.25;
    const auto lib = synth::build_chip(chip_style, tiles, tiles,
                                       1000 + static_cast<std::uint64_t>(tiles),
                                       tile_variants);
    const auto index =
        core::ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
    const double area_mm2 = static_cast<double>(tiles) * tiles *
                            chip_style.window_nm * chip_style.window_nm /
                            1e12;  // mm^2 of (scaled) layout

    double serial_cnn = 0.0, parallel_cnn = 0.0;
    for (const std::size_t threads : thread_counts) {
      scan_cfg.threads = threads;
      const std::string cell = Table::cell(static_cast<long long>(tiles)) +
                               "x" +
                               Table::cell(static_cast<long long>(tiles));
      for (const bool dedup : {false, true}) {
        scan_cfg.dedup = dedup;
        const auto single = core::scan_chip(index, *cnn, scan_cfg);
        const auto two =
            core::scan_chip_two_stage(index, *prefilter, *cnn, scan_cfg);
        if (!dedup && threads == 1) serial_cnn = single.seconds;
        if (!dedup && threads == thread_counts.back()) {
          parallel_cnn = single.seconds;
        }
        const std::string suffix = dedup ? " dedup" : "";
        report_scan(report, "cnn-only " + cell + suffix, single, tiles,
                    threads, dedup);
        report_scan(report, "two-stage " + cell + suffix, two, tiles,
                    threads, dedup);
        for (const auto& [flow, r] :
             {std::pair{"cnn-only", &single}, {"pm->cnn two-stage", &two}}) {
          const auto probes = r->cache_hits + r->cache_misses;
          table.add_row(
              {cell, Table::cell(area_mm2, 3), flow,
               Table::cell(static_cast<long long>(threads)),
               dedup ? "on" : "off",
               Table::cell(static_cast<long long>(r->windows_total)),
               Table::cell(static_cast<long long>(r->windows_classified)),
               Table::cell(static_cast<long long>(r->flagged)),
               probes > 0 ? Table::cell(static_cast<double>(r->cache_hits) /
                                            static_cast<double>(probes),
                                        3)
                          : "-",
               Table::cell(r->seconds, 2),
               Table::cell(1e6 * r->seconds /
                               static_cast<double>(r->windows_total),
                           1)});
        }
        LHD_LOG(Info) << tiles << "x" << tiles << " @" << threads
                      << " threads" << (dedup ? " (dedup)" : "") << ": cnn "
                      << single.seconds << "s vs two-stage " << two.seconds
                      << "s"
                      << (dedup ? " — " +
                                      Table::cell(static_cast<long long>(
                                          single.windows_classified)) +
                                      " detector invocations"
                                : "");
      }
      // Hierarchical cell-aware scan: same window grid and hit list as the
      // flattened scans above (asserted by the parity properties), but the
      // detector only runs on fresh geometry — interiors of repeated cell
      // placements replay.
      for (const bool dedup : {false, true}) {
        scan_cfg.dedup = dedup;
        scan_cfg.hierarchical = true;
        const auto hier = core::scan_library(lib, "TOP", synth::kChipLayer,
                                             *cnn, scan_cfg);
        scan_cfg.hierarchical = false;
        const std::string suffix = dedup ? " dedup" : "";
        report_scan(report, "hier " + cell + suffix, hier, tiles, threads,
                    dedup);
        const auto probes = hier.cache_hits + hier.cache_misses;
        table.add_row(
            {cell, Table::cell(area_mm2, 3), "cnn hier",
             Table::cell(static_cast<long long>(threads)),
             dedup ? "on" : "off",
             Table::cell(static_cast<long long>(hier.windows_total)),
             Table::cell(static_cast<long long>(hier.windows_classified)),
             Table::cell(static_cast<long long>(hier.flagged)),
             probes > 0 ? Table::cell(static_cast<double>(hier.cache_hits) /
                                          static_cast<double>(probes),
                                      3)
                        : "-",
             Table::cell(hier.seconds, 2),
             Table::cell(1e6 * hier.seconds /
                             static_cast<double>(hier.windows_total),
                         1)});
        LHD_LOG(Info) << tiles << "x" << tiles << " @" << threads
                      << " threads hier" << (dedup ? " (dedup)" : "") << ": "
                      << hier.instances << " instances of "
                      << hier.distinct_cells << " cells, "
                      << hier.replay_hits << " replay hits, "
                      << hier.stitch_windows << " stitch windows, "
                      << hier.windows_classified << " detector invocations";
      }
    }
    if (thread_counts.size() > 1 && parallel_cnn > 0.0) {
      LHD_LOG(Info) << tiles << "x" << tiles << ": cnn-only scan speedup "
                    << serial_cnn / parallel_cnn << "x with "
                    << thread_counts.back() << " threads";
    }
  }
  bench::print_table(table);
  bench::write_report(report, cli, "fig8_scan");
  return 0;
}
