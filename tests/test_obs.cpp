// Tests for lhd/obs: counter atomicity under the ThreadPool, scoped-timer
// nesting and accumulator mode, JSON round-trip + deterministic dumps,
// RunReport schema, and the per-shard stats and registry tallies every
// scan records.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "lhd/core/scan.hpp"
#include "lhd/obs/obs.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::obs {
namespace {

// --------------------------------------------------------------- registry --

TEST(Registry, CounterIsExactUnderConcurrentAdds) {
  Registry reg;
  Counter& counter = reg.counter("hits");
  constexpr std::size_t kIters = 20000;
  // An explicit 4-worker pool gives genuine concurrency even when the
  // host (and thus the global pool) is single-core.
  ThreadPool pool(4);
  pool.parallel_for(0, kIters, [&](std::size_t) { counter.add(3); });
  EXPECT_EQ(counter.value(), 3 * kIters);
}

TEST(Registry, HistogramAggregatesUnderConcurrentObserves) {
  Registry reg;
  Histogram& hist = reg.histogram("values");
  constexpr std::size_t kIters = 5000;
  ThreadPool pool(4);
  pool.parallel_for(0, kIters, [&](std::size_t i) {
    hist.observe(static_cast<double>(i % 10));
  });
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kIters);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 9.0);
  EXPECT_DOUBLE_EQ(snap.sum, 4.5 * kIters);
  EXPECT_DOUBLE_EQ(snap.mean(), 4.5);
}

TEST(Registry, ConcurrentLookupsOfTheSameNameShareOneCounter) {
  Registry reg;
  constexpr std::size_t kIters = 4000;
  ThreadPool pool(4);
  // Resolve the name on every add — exercises the map lock, and the total
  // still has to come out exact because all lookups alias one counter.
  pool.parallel_for(0, kIters,
                    [&](std::size_t) { reg.counter("shared").add(); });
  EXPECT_EQ(reg.counter("shared").value(), kIters);
  EXPECT_EQ(reg.counters().at("shared"), kIters);
}

TEST(Registry, ResetZeroesButKeepsNames) {
  Registry reg;
  reg.counter("a").add(5);
  reg.histogram("b").observe(1.0);
  reg.reset();
  EXPECT_EQ(reg.counters().at("a"), 0u);
  EXPECT_EQ(reg.histograms().at("b").count, 0u);
}

// ----------------------------------------------------------------- timers --

TEST(ScopedTimer, NestedTimersOrderElapsedTimes) {
  double outer = 0.0, inner = 0.0;
  {
    ScopedTimer outer_timer(outer);
    {
      ScopedTimer inner_timer(inner);
      // Do a little real work so inner is measurably positive.
      volatile double sink = 0.0;
      for (int i = 0; i < 10000; ++i) sink = sink + i * 0.5;
    }
  }
  EXPECT_GT(inner, 0.0);
  EXPECT_GE(outer, inner);
}

TEST(ScopedTimer, AccumulatorModeSumsAcrossScopes) {
  double total = 0.0;
  double previous = 0.0;
  for (int i = 0; i < 3; ++i) {
    ScopedTimer timer(total);
    volatile int sink = 0;
    for (int j = 0; j < 1000; ++j) sink = sink + j;
    timer.stop();
    EXPECT_GT(total, previous);  // every scope adds, none resets
    previous = total;
  }
}

TEST(ScopedTimer, StopIsIdempotentAndHistogramCountsOnce) {
  Registry reg;
  Histogram& hist = reg.histogram("t");
  {
    ScopedTimer timer(hist);
    timer.stop();
    EXPECT_EQ(timer.stop(), 0.0);  // second stop records nothing
  }                                // destructor must not double-record
  EXPECT_EQ(hist.snapshot().count, 1u);
}

// ------------------------------------------------------------------- json --

TEST(Json, RoundTripsNestedStructure) {
  Json root = Json::object();
  root["int"] = 42;
  root["negative"] = -7;
  root["float"] = 0.125;
  root["third"] = 1.0 / 3.0;
  root["bool"] = true;
  root["null"] = Json();
  root["string"] = "hello \"world\"\n\ttab";
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(3.5);
  root["array"] = std::move(arr);
  Json nested = Json::object();
  nested["deep"] = Json::array();
  root["nested"] = std::move(nested);

  const Json parsed = Json::parse(root.dump());
  EXPECT_EQ(parsed, root);
  // Compact form round-trips too.
  EXPECT_EQ(Json::parse(root.dump(0)), root);
}

TEST(Json, DumpIsDeterministicAndKeySorted) {
  Json a = Json::object();
  a["zebra"] = 1;
  a["alpha"] = 2;
  a["mid"] = 3;
  Json b = Json::object();
  b["mid"] = 3;
  b["alpha"] = 2;
  b["zebra"] = 1;
  // Same members, different insertion order -> byte-identical text.
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(a.dump(), a.dump());
  const std::string text = a.dump(0);
  EXPECT_LT(text.find("alpha"), text.find("mid"));
  EXPECT_LT(text.find("mid"), text.find("zebra"));
}

TEST(Json, DoublesSurviveShortestRoundTrip) {
  for (const double v : {0.1, 1e-9, 123456.789, 1.0 / 3.0, -2.5e17}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_DOUBLE_EQ(parsed.as_double(), v);
  }
  // Integers stay integers (no ".0" suffix), floats gain one.
  EXPECT_EQ(Json(5).dump(), "5");
  EXPECT_EQ(Json(5.0).dump(), "5.0");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, AtAndContainsOnObjects) {
  Json obj = Json::object();
  obj["key"] = 7;
  EXPECT_TRUE(obj.contains("key"));
  EXPECT_FALSE(obj.contains("missing"));
  EXPECT_EQ(obj.at("key").as_int(), 7);
  EXPECT_TRUE(obj.at("missing").is_null());
}

// -------------------------------------------------------------- RunReport --

TEST(RunReport, SchemaHasAllTopLevelKeys) {
  RunReport report("my_tool", "B3");
  const Json root = Json::parse(report.to_json());
  for (const char* key : {"schema", "tool", "suite", "config", "phases",
                          "counters", "histograms"}) {
    EXPECT_TRUE(root.contains(key)) << key;
  }
  EXPECT_EQ(root.at("tool").as_string(), "my_tool");
  EXPECT_EQ(root.at("suite").as_string(), "B3");
  EXPECT_EQ(root.at("schema").as_string(), "lhd.run_report/1");
}

TEST(RunReport, PhasesKeepInsertionOrderAndMergeExtras) {
  RunReport report("tool");
  Json extra = Json::object();
  extra["windows"] = 128;
  report.add_phase("zeta", 1.5, std::move(extra));
  report.add_phase("alpha", 0.5);
  const Json root = Json::parse(report.to_json());
  ASSERT_EQ(root.at("phases").size(), 2u);
  EXPECT_EQ(root.at("phases").items()[0].at("name").as_string(), "zeta");
  EXPECT_EQ(root.at("phases").items()[0].at("windows").as_int(), 128);
  EXPECT_DOUBLE_EQ(root.at("phases").items()[1].at("seconds").as_double(),
                   0.5);
}

TEST(RunReport, CapturesRegistryTotals) {
  Registry reg;
  reg.add("windows", 64);
  reg.observe("seconds", 2.0);
  reg.observe("seconds", 4.0);
  RunReport report("tool");
  report.capture_registry(reg);
  const Json root = Json::parse(report.to_json());
  EXPECT_EQ(root.at("counters").at("windows").as_int(), 64);
  EXPECT_EQ(root.at("histograms").at("seconds").at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(
      root.at("histograms").at("seconds").at("mean").as_double(), 3.0);
}

TEST(RunReport, WritesParseableFile) {
  RunReport report("tool", "B1");
  report.set_config("stride_nm", 512);
  report.add_phase("scan", 0.25);
  const auto path = std::filesystem::temp_directory_path() /
                    "lhd_test_run_report.json";
  ASSERT_TRUE(report.write(path.string()));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(Json::parse(buffer.str()), Json::parse(report.to_json()));
  std::filesystem::remove(path);
}

// ------------------------------------------------------ scan shard stats --

class DensityCutDetector final : public core::Detector {
 public:
  explicit DensityCutDetector(float cut) : cut_(cut) {}
  std::string name() const override { return "density-cut"; }
  void train(const data::Dataset&) override {}
  float score(const data::Clip& clip) const override {
    const double area = static_cast<double>(geom::union_area(clip.rects));
    const double total =
        static_cast<double>(clip.window_nm) * clip.window_nm;
    return static_cast<float>(area / total) - cut_;
  }
  bool predict(const data::Clip& clip) const override {
    return score(clip) > threshold();
  }
  void set_threshold(float t) override { threshold_ = t; }
  float threshold() const override { return threshold_; }

 private:
  float cut_;
  float threshold_ = 0.0f;
};

TEST(Scan, ShardStatsCoverEveryWindow) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 4, 4, 77);
  const auto index =
      core::ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const DensityCutDetector det(0.05f);
  core::ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;

  ThreadPool pool(4);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    cfg.threads = threads;
    const auto result = core::scan_chip(index, det, cfg, pool);

    // Every scan reports per-shard cost, and the shards partition the
    // windows between them.
    std::size_t shard_windows = 0;
    double shard_seconds = 0.0;
    for (const auto& shard : result.shards) {
      shard_windows += shard.windows;
      shard_seconds += shard.seconds;
    }
    EXPECT_EQ(shard_windows, result.windows_total) << threads;
    EXPECT_GT(shard_seconds, 0.0) << threads;
  }
}

TEST(Scan, ScanRecordsIntoGlobalRegistry) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 2, 2, 9);
  const auto index =
      core::ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const DensityCutDetector det(0.05f);

  const auto before = Registry::global().counters();
  const auto windows_before =
      before.count("scan.windows_total") ? before.at("scan.windows_total")
                                         : 0;
  const auto result = core::scan_chip(index, det, {});
  const auto after = Registry::global().counters();
  EXPECT_EQ(after.at("scan.windows_total") - windows_before,
            result.windows_total);
}

}  // namespace
}  // namespace lhd::obs
