// Tests for lhd/core: metrics, detector adapters, factory, pipeline,
// threshold sweep, chip index + scanning.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "lhd/core/cnn_detector.hpp"
#include "lhd/core/factory.hpp"
#include "lhd/core/pipeline.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/core/score_cache.hpp"
#include "lhd/core/shallow_detector.hpp"
#include "lhd/data/clip_hash.hpp"
#include "lhd/gds/model.hpp"
#include "lhd/ml/naive_bayes.hpp"
#include "lhd/obs/json.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/testkit/testkit.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::core {
namespace {

using geom::Rect;

// ---------------------------------------------------------------- metrics --

TEST(Metrics, ConfusionDerivedRates) {
  Confusion c;
  c.tp = 8;
  c.fn = 2;
  c.fp = 5;
  c.tn = 85;
  EXPECT_EQ(c.total(), 100u);
  EXPECT_EQ(c.hotspots(), 10u);
  EXPECT_EQ(c.alarms(), 13u);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(c.false_alarm_rate(), 5.0 / 90.0);
  EXPECT_DOUBLE_EQ(c.precision(), 8.0 / 13.0);
  EXPECT_GT(c.f1(), 0.6);
  EXPECT_LT(c.f1(), 0.8);
}

TEST(Metrics, DegenerateCasesDoNotDivideByZero) {
  Confusion none;
  EXPECT_DOUBLE_EQ(none.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(none.false_alarm_rate(), 0.0);
  EXPECT_DOUBLE_EQ(none.precision(), 1.0);
}

TEST(Metrics, EvaluateCountsAgainstLabels) {
  data::Dataset ds;
  for (int i = 0; i < 4; ++i) {
    data::Clip c;
    c.label = i < 2 ? data::Label::Hotspot : data::Label::NonHotspot;
    ds.add(std::move(c));
  }
  const auto c = evaluate({true, false, true, false}, ds);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
}

TEST(Metrics, EvaluateSizeMismatchThrows) {
  data::Dataset ds;
  data::Clip c;
  ds.add(std::move(c));
  EXPECT_THROW(evaluate({true, false}, ds), Error);
}

TEST(Metrics, OdstPricesAlarms) {
  Confusion c;
  c.tp = 3;
  c.fp = 7;
  EXPECT_DOUBLE_EQ(odst_seconds(c, 2.0, 0.5), 2.0 + 10 * 0.5);
  EXPECT_DOUBLE_EQ(full_simulation_seconds(100, 0.5), 50.0);
}

// --------------------------------------------------------------- factory --

TEST(Factory, AllKindsConstruct) {
  for (const auto& kind : all_detector_kinds()) {
    EXPECT_NO_THROW({ auto det = make_detector(kind); }) << kind;
  }
}

TEST(Factory, UnknownKindThrows) {
  EXPECT_THROW(make_detector("quantum"), Error);
}

TEST(Factory, HeadlineKindsAreSubsetOfAll) {
  const auto& all = all_detector_kinds();
  for (const auto& kind : headline_detector_kinds()) {
    EXPECT_NE(std::find(all.begin(), all.end(), kind), all.end()) << kind;
  }
}

TEST(Factory, NamesAreStable) {
  EXPECT_EQ(make_detector("pm")->name(), "pattern-match");
  EXPECT_EQ(make_detector("svm")->name(), "linear-svm");
  EXPECT_EQ(make_detector("cnn")->name(), "cnn");
}

// ------------------------------------------------- tiny synthetic suites --

synth::BuiltSuite tiny_suite(int n_train = 60, int n_test = 40) {
  synth::SuiteSpec spec = synth::suite_by_name("B2");
  spec.n_train = n_train;
  spec.n_test = n_test;
  return synth::build_suite(spec, {});
}

TEST(ShallowDetector, TrainsAndBeatsChanceOnTinySuite) {
  const auto suite = tiny_suite();
  ShallowDetectorConfig cfg;
  cfg.augment_factor = 2;
  ShallowDetector det("nb", feature::make_density_extractor(),
                      std::make_unique<ml::GaussianNaiveBayes>(), cfg);
  det.train(suite.train);
  const auto c = evaluate(det.predict_all(suite.test), suite.test);
  // Weak learner, tiny data — just demand better-than-random behaviour.
  EXPECT_GT(c.accuracy() + (1.0 - c.false_alarm_rate()), 1.0);
}

TEST(ShallowDetector, EmptyTrainingThrows) {
  ShallowDetector det("nb", feature::make_density_extractor(),
                      std::make_unique<ml::GaussianNaiveBayes>(), {});
  EXPECT_THROW(det.train(data::Dataset{}), Error);
}

TEST(CnnDetector, TinyTrainingRunGoesThroughAllModes) {
  const auto suite = tiny_suite(40, 20);
  for (const auto mode : {CnnTrainMode::Plain, CnnTrainMode::Biased,
                          CnnTrainMode::BatchBiased}) {
    CnnDetectorConfig cfg;
    cfg.mode = mode;
    cfg.train.epochs = 2;
    cfg.bias_epochs = 1;
    cfg.epochs_per_stage = 1;
    cfg.lambda_schedule = {0.2};
    cfg.augment_factor = 1;
    CnnDetector det("cnn-tiny", cfg);
    det.train(suite.train);
    EXPECT_FALSE(det.history().empty());
    const auto preds = det.predict_all(suite.test);
    EXPECT_EQ(preds.size(), suite.test.size());
    // predict_all must agree with per-clip predict.
    for (std::size_t i = 0; i < suite.test.size(); ++i) {
      EXPECT_EQ(preds[i], det.predict(suite.test[i]));
    }
  }
}

TEST(CnnDetector, SaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  const auto suite = tiny_suite(30, 10);
  CnnDetectorConfig cfg;
  cfg.train.epochs = 2;
  cfg.augment_factor = 1;
  CnnDetector det("cnn-io", cfg);
  det.train(suite.train);
  const auto path =
      (fs::temp_directory_path() / "lhd_test_cnn.weights").string();
  det.save(path);
  CnnDetector loaded("cnn-io2", cfg);
  loaded.load(path);
  for (std::size_t i = 0; i < suite.test.size(); ++i) {
    EXPECT_NEAR(det.probability(suite.test[i]),
                loaded.probability(suite.test[i]), 1e-5);
  }
  fs::remove(path);
}

// --------------------------------------------------------------- pipeline --

TEST(Pipeline, RunExperimentFillsAllFields) {
  const auto suite = tiny_suite(50, 30);
  auto det = make_detector("nb");
  const auto r = run_experiment(*det, suite, "tiny", 0.01);
  EXPECT_EQ(r.detector, "naive-bayes");
  EXPECT_EQ(r.suite, "tiny");
  EXPECT_EQ(r.confusion.total(), 30u);
  EXPECT_GT(r.train_seconds, 0.0);
  EXPECT_GT(r.test_seconds, 0.0);
  EXPECT_GE(r.odst, r.test_seconds);
  EXPECT_DOUBLE_EQ(r.full_sim, 0.3);
  EXPECT_GT(r.speedup, 0.0);
}

TEST(Pipeline, ThresholdSweepIsMonotoneInAlarms) {
  const auto suite = tiny_suite(50, 40);
  auto det = make_detector("logreg");
  det->train(suite.train);
  const std::vector<float> thresholds = {-5.0f, -1.0f, 0.0f, 1.0f, 5.0f};
  const auto sweep = threshold_sweep(*det, suite.test, thresholds);
  ASSERT_EQ(sweep.size(), thresholds.size());
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].confusion.alarms(), sweep[i - 1].confusion.alarms());
  }
}

TEST(Pipeline, ThresholdSweepRestoresThreshold) {
  const auto suite = tiny_suite(30, 10);
  auto det = make_detector("nb");
  det->train(suite.train);
  det->set_threshold(0.25f);
  threshold_sweep(*det, suite.test, {-1.0f, 1.0f});
  EXPECT_FLOAT_EQ(det->threshold(), 0.25f);
}

// -------------------------------------------------------------- chip index --

TEST(ChipIndex, QueryMatchesBruteForce) {
  // Property form of the old single-seed test: random layouts now come from
  // testkit and any failure prints its reproducing LHD_PROPERTY_SEED line.
  CHECK_PROPERTY("chip-index-brute-force", 32, [](Rng& rng,
                                                  std::size_t size) {
    const auto rects =
        testkit::random_rects(rng, 20 + size * 6, 8400, 20, 400);
    const ChipIndex index(rects);
    // query_ids numbers the non-degenerate rects in input order.
    std::vector<Rect> kept;
    std::copy_if(rects.begin(), rects.end(), std::back_inserter(kept),
                 [](const Rect& r) { return !r.empty(); });
    ChipIndex::QueryScratch scratch;
    std::vector<std::uint32_t> ids;
    for (int trial = 0; trial < 8; ++trial) {
      // Range deliberately overshoots the extent on both sides, so windows
      // that hang off the chip (or miss it entirely) are exercised against
      // the brute-force ground truth too.
      const auto x = static_cast<geom::Coord>(rng.next_int(-2500, 9500));
      const auto y = static_cast<geom::Coord>(rng.next_int(-2500, 9500));
      const Rect window(x, y, x + 1024, y + 1024);
      auto got = index.query(window);
      auto expected = geom::clip_rects(rects, window);
      auto key = [](const Rect& r) {
        return std::tuple(r.xlo, r.ylo, r.xhi, r.yhi);
      };
      std::sort(got.begin(), got.end(),
                [&](const Rect& a, const Rect& b) { return key(a) < key(b); });
      std::sort(expected.begin(), expected.end(),
                [&](const Rect& a, const Rect& b) { return key(a) < key(b); });
      if (got != expected) {
        std::ostringstream os;
        os << "index.query disagrees with clip_rects on window " << trial
           << " (" << got.size() << " vs " << expected.size() << " rects)";
        throw testkit::PropertyFailure(os.str());
      }
      std::vector<std::uint32_t> expected_ids;
      for (std::uint32_t i = 0; i < kept.size(); ++i) {
        if (kept[i].overlaps(window)) expected_ids.push_back(i);
      }
      index.query_ids(window, scratch, ids);
      if (ids != expected_ids) {
        std::ostringstream os;
        os << "index.query_ids disagrees with brute-force overlap on window "
           << trial << " (" << ids.size() << " vs " << expected_ids.size()
           << " ids)";
        throw testkit::PropertyFailure(os.str());
      }
    }
  });
}

TEST(ChipIndex, EmptyIndexQueriesEmpty) {
  const ChipIndex index({});
  EXPECT_TRUE(index.query(Rect(0, 0, 100, 100)).empty());
  EXPECT_EQ(index.rect_count(), 0u);
}

TEST(ChipIndex, FromLibraryFlattens) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 2, 2, 9);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  EXPECT_GT(index.rect_count(), 0u);
  EXPECT_FALSE(index.extent().empty());
}

TEST(ChipIndex, DegenerateRectsAreFilteredOut) {
  // Zero-width, inverted and zero-height rects would mis-index: bucketing
  // runs over [xlo, xhi - 1], which lands left of xlo when xhi <= xlo.
  const std::vector<Rect> rects = {
      Rect(500, 500, 500, 900),  // zero width
      Rect(700, 200, 600, 300),  // inverted x
      Rect(40, 40, 80, 40),      // zero height
      Rect(0, 0, 100, 100),      // the only real rect
  };
  const ChipIndex index(rects);
  EXPECT_EQ(index.rect_count(), 1u);
  EXPECT_EQ(index.extent(), Rect(0, 0, 100, 100));
  const auto got = index.query(Rect(0, 0, 1000, 1000));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Rect(0, 0, 100, 100));
}

TEST(ChipIndex, AllDegenerateBehavesAsEmpty) {
  const ChipIndex index({Rect(10, 10, 10, 10), Rect(5, 9, 1, 20)});
  EXPECT_EQ(index.rect_count(), 0u);
  EXPECT_TRUE(index.extent().empty());
  EXPECT_TRUE(index.query(Rect(0, 0, 100, 100)).empty());
}

TEST(ChipIndex, QueryStampWrapAroundKeepsResults) {
  // Two rects in different buckets, so a query over one never refreshes the
  // other's stamp.
  const std::vector<Rect> rects = {Rect(0, 0, 100, 100),
                                   Rect(5000, 5000, 5100, 5100)};
  const ChipIndex index(rects);
  ChipIndex::QueryScratch scratch;
  const Rect win_a(0, 0, 200, 200);
  const auto before = index.query(win_a, scratch);  // stamps rect 0 with 1
  ASSERT_EQ(before.size(), 1u);
  // Force the counter to wrap. Without the wrap reset it re-enters the
  // previous epoch's value range: the query that lands on value 1 again
  // sees rect 0's stale stamp from the very first query and drops it.
  scratch.fast_forward(std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(index.query(Rect(4900, 4900, 5200, 5200), scratch).size(), 1u);
  const auto after_wrap = index.query(win_a, scratch);
  EXPECT_EQ(after_wrap, before);

  // query_ids walks the same stamps, so the same wrap must keep its ids.
  std::vector<std::uint32_t> ids;
  scratch.fast_forward(0);
  index.query_ids(win_a, scratch, ids);  // stamps rect 0 with 1
  ASSERT_EQ(ids, std::vector<std::uint32_t>{0});
  scratch.fast_forward(std::numeric_limits<std::uint32_t>::max());
  index.query_ids(Rect(4900, 4900, 5200, 5200), scratch, ids);
  EXPECT_EQ(ids, std::vector<std::uint32_t>{1});
  index.query_ids(win_a, scratch, ids);
  EXPECT_EQ(ids, std::vector<std::uint32_t>{0});
}

TEST(ChipIndex, OutOfExtentWindowsReturnNothing) {
  // Regression for the bucket-range truncation bug: integer division
  // truncates toward zero, so a window entirely left of / below the extent
  // produced a negative bucket offset that rounded *up* to 0 and spuriously
  // walked bucket row/column 0. Floor division plus the overlap early-out
  // must keep every fully-outside window an exact no-op.
  const std::vector<Rect> rects = {Rect(5000, 5000, 5400, 5400),
                                   Rect(9000, 9000, 9200, 9300)};
  const ChipIndex index(rects);
  const std::vector<Rect> outside = {
      Rect(0, 0, 1024, 1024),            // below-left of the extent
      Rect(0, 6000, 1024, 7024),         // left, y-overlapping
      Rect(6000, 0, 7024, 1024),         // below, x-overlapping
      Rect(-3000, -3000, -2000, -2000),  // fully negative coordinates
      Rect(9300, 9400, 9800, 9900),      // above-right of the extent
  };
  ChipIndex::QueryScratch scratch;
  for (const auto& w : outside) {
    EXPECT_TRUE(index.query(w, scratch).empty())
        << "window (" << w.xlo << "," << w.ylo << ")";
  }
  // Windows straddling the extent's low edge still see the geometry.
  const auto got = index.query(Rect(4600, 4600, 5624, 5624), scratch);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Rect(400, 400, 800, 800));  // window-local coordinates
}

TEST(ChipIndex, ExtentWiderThanCoordRangeIndexesBothEdges) {
  // Regression: bucket math ran in 32-bit Coord, so an extent from -2^30
  // to 2^30 (both ends accepted by the GDS reader) read its width as -2^31
  // and every bucket offset past 2^31 wrapped negative. The right-hand
  // rect then sat in no bucket and its window queried empty.
  constexpr geom::Coord kEdge = geom::Coord{1} << 30;
  const ChipIndex index({Rect(-kEdge, 0, -kEdge + 100, 100),
                         Rect(kEdge - 100, 0, kEdge, 100)},
                        /*bucket_nm=*/geom::Coord{1} << 20);
  EXPECT_EQ(index.extent().xlo, -kEdge);
  EXPECT_EQ(index.extent().xhi, kEdge);
  const auto left = index.query(Rect(-kEdge, 0, -kEdge + 1024, 1024));
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], Rect(0, 0, 100, 100));
  const auto right = index.query(Rect(kEdge - 1024, 0, kEdge, 1024));
  ASSERT_EQ(right.size(), 1u);
  EXPECT_EQ(right[0], Rect(924, 0, 1024, 100));
  EXPECT_TRUE(index.query(Rect(-512, 0, 512, 1024)).empty());
}

TEST(ChipIndex, ConcurrentQueriesWithOwnScratchMatchSerial) {
  CHECK_PROPERTY("chip-index-concurrent", 4, [](Rng& rng, std::size_t) {
    const auto rects = testkit::random_rects(rng, 300, 6300, 20, 300);
    const ChipIndex index(rects);
    std::vector<Rect> windows;
    for (int i = 0; i < 64; ++i) {
      const auto x = static_cast<geom::Coord>(rng.next_int(0, 6000));
      const auto y = static_cast<geom::Coord>(rng.next_int(0, 6000));
      windows.emplace_back(x, y, x + 1024, y + 1024);
    }
    std::vector<std::vector<Rect>> serial;
    serial.reserve(windows.size());
    for (const auto& w : windows) serial.push_back(index.query(w));

    // Hammer the same const index from several threads, each with its own
    // scratch. Pre-fix, the shared mutable stamp state makes this race
    // (caught by TSan) and corrupt dedupe results.
    constexpr int kThreads = 4;
    constexpr int kRounds = 12;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ChipIndex::QueryScratch scratch;
        for (int round = 0; round < kRounds; ++round) {
          for (std::size_t i = 0; i < windows.size(); ++i) {
            if (index.query(windows[i], scratch) != serial[i]) {
              ++mismatches[t];
            }
          }
          // The convenience overload must be just as safe (it owns a
          // per-call scratch); pre-fix it shared mutable stamp state.
          const std::size_t i =
              static_cast<std::size_t>(round) % windows.size();
          if (index.query(windows[i]) != serial[i]) ++mismatches[t];
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      if (mismatches[t] != 0) {
        std::ostringstream os;
        os << "thread " << t << " saw " << mismatches[t]
           << " query results diverge from the serial baseline";
        throw testkit::PropertyFailure(os.str());
      }
    }
  });
}

// ------------------------------------------------------------------- scan --

class ThresholdedDensityDetector final : public Detector {
 public:
  explicit ThresholdedDensityDetector(float cut) : cut_(cut) {}
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

TEST(Scan, SingleStageVisitsAllWindows) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 3, 3, 21);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 1024;
  const auto result = scan_chip(index, det, cfg);
  EXPECT_GE(result.windows_total, 9u);
  EXPECT_GT(result.windows_classified, 0u);
  EXPECT_EQ(result.hits.size(), result.flagged);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(Scan, TwoStageClassifiesNoMoreThanSingleStage) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 3, 3, 22);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector prefilter(0.30f);  // strict stage 1
  const ThresholdedDensityDetector refiner(0.05f);
  ScanConfig cfg;
  const auto single = scan_chip(index, refiner, cfg);
  const auto two = scan_chip_two_stage(index, prefilter, refiner, cfg);
  EXPECT_EQ(single.windows_total, two.windows_total);
  EXPECT_LE(two.windows_classified, single.windows_classified);
  EXPECT_LE(two.flagged, single.flagged);
}

TEST(Scan, StrictPrefilterSuppressesEverything) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 2, 2, 23);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector never(2.0f);  // density can't exceed 1
  const ThresholdedDensityDetector always(-1.0f);
  const auto result = scan_chip_two_stage(index, never, always, {});
  EXPECT_EQ(result.windows_classified, 0u);
  EXPECT_EQ(result.flagged, 0u);
}

TEST(Scan, RejectsBadConfig) {
  const ChipIndex index({Rect(0, 0, 100, 100)});
  const ThresholdedDensityDetector det(0.1f);
  ScanConfig cfg;
  cfg.stride_nm = 0;
  EXPECT_THROW(scan_chip(index, det, cfg), Error);
}

TEST(Scan, ParallelScanMatchesSerialBitExact) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 4, 4, 31);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;

  cfg.threads = 1;
  const auto serial = scan_chip(index, det, cfg);
  ASSERT_GT(serial.flagged, 0u);

  // An explicit 4-worker pool gives genuine concurrency even when the
  // host (and thus the global pool) is single-core.
  ThreadPool pool(4);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    cfg.threads = threads;
    const auto par = scan_chip(index, det, cfg, pool);
    EXPECT_EQ(par.windows_total, serial.windows_total) << threads;
    EXPECT_EQ(par.windows_classified, serial.windows_classified) << threads;
    EXPECT_EQ(par.flagged, serial.flagged) << threads;
    EXPECT_EQ(par.hits, serial.hits) << threads;
  }
}

TEST(Scan, ParallelTwoStageMatchesSerialBitExact) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 4, 4, 32);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector prefilter(0.10f);
  const ThresholdedDensityDetector refiner(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;

  cfg.threads = 1;
  const auto serial = scan_chip_two_stage(index, prefilter, refiner, cfg);

  ThreadPool pool(4);
  for (const std::size_t threads : {2u, 5u}) {
    cfg.threads = threads;
    const auto par = scan_chip_two_stage(index, prefilter, refiner, cfg, pool);
    EXPECT_EQ(par.windows_total, serial.windows_total) << threads;
    EXPECT_EQ(par.windows_classified, serial.windows_classified) << threads;
    EXPECT_EQ(par.flagged, serial.flagged) << threads;
    EXPECT_EQ(par.hits, serial.hits) << threads;
  }
}

// ------------------------------------------------------------ score cache --

data::CanonicalClip canon_of(std::vector<Rect> rects,
                             geom::Coord window = 1024) {
  return data::canonical_clip(std::move(rects), window);
}

TEST(ScoreCache, InsertThenLookupHits) {
  ScoreCache cache(64);
  const auto key = canon_of({Rect(0, 0, 100, 100)});
  const auto hash = data::canonical_hash(key);
  EXPECT_FALSE(cache.lookup(key, hash).has_value());
  cache.insert(key, hash, 0.75f);
  const auto got = cache.lookup(key, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0.75f);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats(), (ScoreCache::Stats{1, 1, 0}));
}

TEST(ScoreCache, CapacityZeroNeverStores) {
  ScoreCache cache(0);
  const auto key = canon_of({Rect(0, 0, 50, 50)});
  const auto hash = data::canonical_hash(key);
  cache.insert(key, hash, 0.5f);
  EXPECT_FALSE(cache.lookup(key, hash).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats(), (ScoreCache::Stats{0, 1, 0}));
}

TEST(ScoreCache, CapacityOneEvictsFifo) {
  // The shard count clamps to the capacity, so capacity 1 is one shard
  // holding one entry — the second insert must evict the first.
  ScoreCache cache(1);
  const auto a = canon_of({Rect(0, 0, 100, 100)});
  const auto b = canon_of({Rect(0, 0, 100, 200)});
  cache.insert(a, data::canonical_hash(a), 1.0f);
  cache.insert(b, data::canonical_hash(b), 2.0f);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(a, data::canonical_hash(a)).has_value());
  const auto got = cache.lookup(b, data::canonical_hash(b));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 2.0f);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ScoreCache, FirstWriterWins) {
  ScoreCache cache(16);
  const auto key = canon_of({Rect(10, 10, 40, 40)});
  const auto hash = data::canonical_hash(key);
  cache.insert(key, hash, 0.25f);
  cache.insert(key, hash, 0.75f);  // duplicate: must be a no-op
  EXPECT_EQ(cache.size(), 1u);
  const auto got = cache.lookup(key, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0.25f);
}

TEST(ScoreCache, FullKeyCollisionReplacesResidentEntry) {
  // Two distinct canonical keys forced onto one 64-bit hash (the hash is
  // caller-supplied, so the test can simulate the 2^-64 event directly).
  // The old early-return kept the incumbent forever, which made the second
  // pattern permanently uncacheable — every occurrence re-scored for the
  // cache's lifetime.
  ScoreCache cache(16);
  const auto a = canon_of({Rect(0, 0, 100, 100)});
  const auto b = canon_of({Rect(0, 0, 100, 200)});
  const std::uint64_t hash = 42;  // shared slot
  cache.insert(a, hash, 1.0f);
  EXPECT_FALSE(cache.lookup(b, hash).has_value());  // full-key compare: miss
  cache.insert(b, hash, 2.0f);                      // must replace, not no-op
  EXPECT_EQ(cache.size(), 1u);
  const auto got = cache.lookup(b, hash);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 2.0f);
  EXPECT_FALSE(cache.lookup(a, hash).has_value());  // incumbent was evicted
  EXPECT_EQ(cache.stats().collisions, 1u);
  // A same-key duplicate stays first-writer-wins and is NOT a collision.
  cache.insert(b, hash, 3.0f);
  EXPECT_EQ(*cache.lookup(b, hash), 2.0f);
  EXPECT_EQ(cache.stats().collisions, 1u);
}

TEST(ScoreCache, NonDividingCapacityHoldsExactTotalBound) {
  // per_shard = capacity / shards used to discard the remainder, so
  // ScoreCache(20, 16) held only 16 entries. The remainder now spreads
  // one-per-shard: the total bound is pinned exactly, from both sides.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {20, 16}, {17, 16}, {31, 16}, {5, 3}, {1, 16}, {16, 16}, {48, 16}};
  for (const auto& [capacity, shards] : cases) {
    ScoreCache cache(capacity, shards);
    // Distinct keys with forced hashes 0..n-1 cover every shard
    // round-robin, enough times to fill each shard to its bound.
    const std::size_t n = 2 * capacity + shards;
    for (std::size_t i = 0; i < n; ++i) {
      const auto key = canon_of({Rect(0, 0, static_cast<geom::Coord>(i + 1),
                                      static_cast<geom::Coord>(i + 1))});
      cache.insert(key, static_cast<std::uint64_t>(i),
                   static_cast<float>(i));
      EXPECT_LE(cache.size(), capacity)
          << "capacity " << capacity << " shards " << shards;
    }
    EXPECT_EQ(cache.size(), capacity)
        << "capacity " << capacity << " shards " << shards;
  }
}

// ------------------------------------------------------------- dedup scan --

TEST(Scan, DedupScanMatchesNaive) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 4, 4, 41);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  const auto naive = testkit::naive_scan(index, det, cfg);
  cfg.dedup = true;
  const auto dedup = scan_chip(index, det, cfg);
  EXPECT_EQ(dedup.windows_total, naive.windows_total);
  EXPECT_EQ(dedup.flagged, naive.flagged);
  EXPECT_EQ(dedup.hits, naive.hits);
  EXPECT_LE(dedup.windows_classified, naive.windows_classified);
  // Single-stage dedup probes the cache exactly once per non-skipped
  // window, and only misses ever reach the detector.
  EXPECT_EQ(dedup.cache_hits + dedup.cache_misses,
            naive.windows_classified);
  EXPECT_GE(dedup.cache_misses, dedup.windows_classified);
}

TEST(Scan, DedupExploitsChipCellReuse) {
  // A chip built with tile variants is periodic (cell reuse), so the dedup
  // scan must classify at most the unique-pattern count: one period of the
  // window grid plus the clipped boundary windows — far fewer than half of
  // the naive invocations. This is the ISSUE's headline claim, pinned on
  // the generator that the fig8 bench scans.
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 8, 8, 44, /*tile_variants=*/4);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  const auto naive = testkit::naive_scan(index, det, cfg);
  cfg.dedup = true;
  const auto dedup = scan_chip(index, det, cfg);
  EXPECT_EQ(dedup.windows_total, naive.windows_total);
  EXPECT_EQ(dedup.hits, naive.hits);
  ASSERT_GT(naive.windows_classified, 0u);
  EXPECT_LE(dedup.windows_classified, naive.windows_classified / 2)
      << "periodic chip should dedup to a fraction of the naive invocations";
}

TEST(Scan, DedupTwoStageMatchesNaive) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 4, 4, 42);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector prefilter(0.10f);
  const ThresholdedDensityDetector refiner(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  const auto naive = testkit::naive_scan(index, refiner, cfg, &prefilter);
  cfg.dedup = true;
  const auto dedup = scan_chip_two_stage(index, prefilter, refiner, cfg);
  EXPECT_EQ(dedup.windows_total, naive.windows_total);
  EXPECT_EQ(dedup.flagged, naive.flagged);
  EXPECT_EQ(dedup.hits, naive.hits);
  // Only stage-2 survivors are deduped, so one cache probe per window the
  // naive refiner classified.
  EXPECT_EQ(dedup.cache_hits + dedup.cache_misses,
            naive.windows_classified);
}

TEST(Scan, DedupCapacityZeroScoresEveryWindowLikeNaive) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 3, 3, 43);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  const auto naive = testkit::naive_scan(index, det, cfg);
  cfg.dedup = true;
  cfg.cache_capacity = 0;  // memoization off: every window misses
  const auto dedup = scan_chip(index, det, cfg);
  EXPECT_EQ(dedup.hits, naive.hits);
  EXPECT_EQ(dedup.flagged, naive.flagged);
  EXPECT_EQ(dedup.cache_hits, 0u);
  // With the cache disabled every window reaches the detector, exactly
  // like naive.
  EXPECT_EQ(dedup.windows_classified, naive.windows_classified);
}

TEST(Scan, DedupClassifiesRepeatedPatternOnce) {
  // A 4x4 grid of identical tiles, windows aligned to the tile pitch:
  // every window sees the same window-local clip.
  std::vector<Rect> rects;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      rects.emplace_back(i * 1024 + 100, j * 1024 + 100, i * 1024 + 400,
                         j * 1024 + 400);
    }
  }
  const ChipIndex index(rects);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 1024;
  cfg.dedup = true;
  const auto result = scan_chip(index, det, cfg);
  EXPECT_EQ(result.windows_total, 16u);
  EXPECT_EQ(result.flagged, 16u);
  EXPECT_EQ(result.windows_classified, 1u);  // one detector invocation
  EXPECT_EQ(result.cache_hits, 15u);
  EXPECT_EQ(result.cache_misses, 1u);
}

TEST(Scan, ShardSplitIsBalancedWhenRowsDoNotDivide) {
  // Regression: the shard loop used ceil-division row ranges, so with R
  // rows over S shards the trailing shards could get zero rows yet still
  // push (empty) accums — shards.size() contradicted the documented
  // "shard count actually used" and the last shards sat idle.
  const ThresholdedDensityDetector det(0.05f);
  ThreadPool pool(4);
  // One rect spanning the whole extent: every row has exactly one window
  // column (width 512 = one stride), so per-shard window counts equal row
  // counts and the split is directly observable.
  for (const auto& [rows, threads] : std::vector<std::pair<int, std::size_t>>{
           {5, 4}, {7, 3}, {5, 8}, {3, 2}, {1, 4}, {6, 4}}) {
    const ChipIndex index({Rect(0, 0, 512, rows * 512)});
    ScanConfig cfg;
    cfg.window_nm = 512;
    cfg.stride_nm = 512;
    cfg.threads = threads;
    const auto result = scan_chip(index, det, cfg, pool);
    const auto expected_shards =
        std::min<std::size_t>(threads, static_cast<std::size_t>(rows));
    EXPECT_EQ(result.shards.size(), expected_shards)
        << rows << " rows / " << threads << " threads";
    std::size_t sum = 0;
    std::size_t smallest = result.windows_total;
    std::size_t largest = 0;
    for (const auto& shard : result.shards) {
      EXPECT_GT(shard.windows, 0u)
          << "idle shard reported for " << rows << " rows / " << threads
          << " threads";
      sum += shard.windows;
      smallest = std::min(smallest, shard.windows);
      largest = std::max(largest, shard.windows);
    }
    EXPECT_EQ(sum, result.windows_total);
    EXPECT_LE(largest - smallest, 1u)
        << "unbalanced split for " << rows << " rows / " << threads
        << " threads";
  }
}

TEST(Scan, SharedCacheReportsPerScanDeltas) {
  // Regression: ScoreCache totals are cumulative, so a cache serving two
  // scans used to double-count the first scan's hits/misses in the second
  // scan's ScanResult. With the snapshot/delta fix, the second scan over
  // identical geometry reports only its own activity: every window a hit,
  // zero misses, zero detector invocations.
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 4, 4, 45);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScoreCache cache(1 << 14);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  cfg.dedup = true;
  cfg.cache = &cache;
  const auto first = scan_chip(index, det, cfg);
  ASSERT_GT(first.cache_misses, 0u);
  const auto second = scan_chip(index, det, cfg);
  EXPECT_EQ(second.windows_total, first.windows_total);
  EXPECT_EQ(second.hits, first.hits);
  // The warm cache serves every probe; per-scan deltas must say so instead
  // of re-reporting the first scan's misses.
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(second.windows_classified, 0u);
  EXPECT_EQ(second.cache_hits, first.cache_hits + first.cache_misses);
  // The cache's own cumulative view spans both scans.
  const auto totals = cache.stats();
  EXPECT_EQ(totals.hits + totals.misses,
            first.cache_hits + first.cache_misses + second.cache_hits +
                second.cache_misses);
}

// ------------------------------------------------------- hierarchical scan --

TEST(HierScan, MatchesFlattenedScanOnSynthChip) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 4, 4, 51, /*tile_variants=*/1);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  const auto naive = testkit::naive_scan(index, det, cfg);
  ASSERT_GT(naive.flagged, 0u);
  cfg.hierarchical = true;
  const auto hier =
      core::scan_library(lib, "TOP", synth::kChipLayer, det, cfg);
  EXPECT_EQ(hier.windows_total, naive.windows_total);
  EXPECT_EQ(hier.flagged, naive.flagged);
  EXPECT_EQ(hier.hits, naive.hits);
  // One distinct tile placed 16 times: the interior of 15 placements
  // replays, so detector work collapses far below the flattened count.
  EXPECT_EQ(hier.instances, 16u);
  EXPECT_EQ(hier.distinct_cells, 1u);
  EXPECT_GT(hier.replay_hits, 0u);
  EXPECT_GT(hier.stitch_windows, 0u);  // stride straddles tile seams
  ASSERT_GT(naive.windows_classified, 0u);
  EXPECT_LE(hier.windows_classified, naive.windows_classified / 2)
      << "cell reuse should collapse detector invocations";
}

TEST(HierScan, RotatedAndMirroredRefsMatchFlattened) {
  // Hand-built library covering every D4 orientation plus an AREF grid —
  // each placement's window offsets differ, so replay must key on the
  // full (cell, mirror, angle, offset) tuple to stay exact. A rotated
  // once-placed cell and TOP's own geometry sit among the repeats: windows
  // touching either are scored without a replay key, through both the
  // mapped and the translation-only gather.
  gds::Library lib;
  gds::Structure& cell = lib.add_structure("CELL");
  gds::Boundary b;
  b.layer = 1;
  b.polygon = geom::Polygon::from_rect(Rect(0, 0, 700, 300));
  cell.add(b);
  gds::Boundary c;
  c.layer = 1;
  c.polygon = geom::Polygon::from_rect(Rect(100, 400, 250, 900));
  cell.add(c);
  gds::Structure& top = lib.add_structure("TOP");
  int placed = 0;
  for (const bool mirror : {false, true}) {
    for (int angle = 0; angle < 360; angle += 90) {
      gds::SRef ref;
      ref.structure = "CELL";
      ref.transform.mirror_x = mirror;
      ref.transform.angle_deg = angle;
      ref.transform.origin = {placed * 1500, (placed % 3) * 1100};
      top.add(ref);
      ++placed;
    }
  }
  gds::ARef arr;
  arr.structure = "CELL";
  arr.transform.origin = {-3000, -2500};
  arr.cols = 3;
  arr.rows = 2;
  arr.col_step = {1200, 0};
  arr.row_step = {0, 1300};
  top.add(arr);
  gds::Boundary loose;  // TOP's own geometry, across the AREF's top row
  loose.layer = 1;
  loose.polygon = geom::Polygon::from_rect(Rect(-1000, -400, 1200, -200));
  top.add(loose);
  gds::Structure& once = lib.add_structure("ONCE");
  gds::Boundary d;
  d.layer = 1;
  d.polygon = geom::Polygon::from_rect(Rect(0, 0, 600, 250));
  once.add(d);
  gds::SRef once_ref;
  once_ref.structure = "ONCE";
  once_ref.transform.angle_deg = 90;
  once_ref.transform.origin = {2300, 600};  // overlaps repeated placements
  lib.find("TOP")->add(once_ref);

  const auto index = ChipIndex::from_library(lib, "TOP", 1);
  const ThresholdedDensityDetector det(0.02f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  const auto naive = testkit::naive_scan(index, det, cfg);
  ASSERT_GT(naive.flagged, 0u);
  ThreadPool pool(4);
  for (const std::size_t threads : {1u, 4u}) {
    for (const bool dedup : {false, true}) {
      cfg.hierarchical = true;
      cfg.threads = threads;
      cfg.dedup = dedup;
      const auto hier = core::scan_library(lib, "TOP", 1, det, cfg, pool);
      EXPECT_EQ(hier.windows_total, naive.windows_total)
          << threads << "/" << dedup;
      EXPECT_EQ(hier.hits, naive.hits) << threads << "/" << dedup;
      // 8 SREFs + 3x2 AREF cells of CELL, ONCE, and TOP's own geometry.
      EXPECT_EQ(hier.instances, 16u);
      EXPECT_EQ(hier.distinct_cells, 3u);
    }
  }
}

TEST(HierScan, FlatConfigDelegatesToFlattenedScan) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 2, 2, 52);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;  // hierarchical = false
  const auto flat = scan_chip(index, det, cfg);
  const auto via_lib =
      core::scan_library(lib, "TOP", synth::kChipLayer, det, cfg);
  EXPECT_EQ(via_lib.hits, flat.hits);
  EXPECT_EQ(via_lib.windows_total, flat.windows_total);
  EXPECT_EQ(via_lib.instances, 0u);  // hierarchical-only counter
}

TEST(HierScan, ChipScanRejectsHierarchicalFlag) {
  const ChipIndex index({Rect(0, 0, 100, 100)});
  const ThresholdedDensityDetector det(0.1f);
  ScanConfig cfg;
  cfg.hierarchical = true;
  EXPECT_THROW(scan_chip(index, det, cfg), Error);
  EXPECT_THROW(scan_chip_two_stage(index, det, det, cfg), Error);
}

TEST(HierScan, EmptyLayerScansZeroWindows) {
  gds::Library lib;
  lib.add_structure("TOP");
  const ThresholdedDensityDetector det(0.1f);
  ScanConfig cfg;
  cfg.hierarchical = true;
  const auto result = core::scan_library(lib, "TOP", 1, det, cfg);
  EXPECT_EQ(result.windows_total, 0u);
  EXPECT_EQ(result.instances, 0u);
  EXPECT_TRUE(result.hits.empty());
}

// ------------------------------------------------------ counter baseline --

obs::Json scan_counts(const ScanResult& r) {
  obs::Json j = obs::Json::object();
  j["windows_total"] = r.windows_total;
  j["flagged"] = r.flagged;
  j["windows_classified"] = r.windows_classified;
  j["cache_probes"] = r.cache_hits + r.cache_misses;
  j["replay_hits"] = r.replay_hits;
  j["stitch_windows"] = r.stitch_windows;
  return j;
}

TEST(ScanCounts, MatchCommittedBaseline) {
  // One small fixed scan in each mode, counters compared exactly against
  // tests/fixtures/scan_counts.json (timing stays out). A change to what a
  // scan does — its windows, its memo key, its answers — fails here until
  // the baseline is regenerated, so the change shows up as a reviewed diff.
  const auto lib = synth::build_chip(synth::StyleConfig{}, 4, 4, 61,
                                     /*tile_variants=*/4);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const testkit::DensityCutDetector det(0.30f);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  cfg.threads = 1;  // one shard: invocation counts are deterministic
  obs::Json got = obs::Json::object();
  got["plain"] = scan_counts(scan_chip(index, det, cfg));
  cfg.dedup = true;
  got["dedup"] = scan_counts(scan_chip(index, det, cfg));
  cfg.hierarchical = true;
  got["hierarchical"] = scan_counts(
      scan_library(lib, "TOP", synth::kChipLayer, det, cfg));
  cfg.hierarchical = false;
  const testkit::DensityCutDetector prefilter(0.15f);
  got["two_stage"] =
      scan_counts(scan_chip_two_stage(index, prefilter, det, cfg));

  std::ifstream in(LHD_FIXTURES_DIR "/scan_counts.json");
  ASSERT_TRUE(in) << "missing tests/fixtures/scan_counts.json";
  std::stringstream text;
  text << in.rdbuf();
  // Compared as documents, so a failure prints both in full; to accept an
  // intended change, commit the "got" side.
  EXPECT_EQ(got.dump(), obs::Json::parse(text.str()).dump())
      << "scan counters differ from tests/fixtures/scan_counts.json";
}

// ------------------------------------------------------------ score batch --

TEST(Detector, DefaultScoreBatchMatchesScore) {
  const ThresholdedDensityDetector det(0.1f);
  std::vector<data::Clip> clips;
  for (int i = 1; i <= 5; ++i) {
    data::Clip c;
    c.window_nm = 1024;
    c.rects = {Rect(0, 0, i * 100, i * 100)};
    clips.push_back(std::move(c));
  }
  const auto batch = det.score_batch(clips);
  ASSERT_EQ(batch.size(), clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i) {
    EXPECT_EQ(batch[i], det.score(clips[i]));
  }
}

TEST(CnnDetector, ScoreBatchMatchesScoreBitExact) {
  // The batched forward pass must reproduce the per-clip path bit for bit
  // (untrained weights are fine — the contract is about inference, and the
  // dedup parity guarantee rests on it).
  CnnDetector det("cnn-batch", {});
  const auto suite = tiny_suite(8, 4);
  std::vector<data::Clip> clips;
  for (std::size_t i = 0; i < suite.test.size(); ++i) {
    clips.push_back(suite.test[i]);
  }
  const auto batch = det.score_batch(clips);
  ASSERT_EQ(batch.size(), clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i) {
    EXPECT_EQ(batch[i], det.score(clips[i]));
  }
}

TEST(Detector, EmptyScoreBatchReturnsEmpty) {
  // Regression: an empty span must come back as an empty vector, not
  // reach the scoring loop or allocate a garbage element.
  const ThresholdedDensityDetector det(0.1f);
  EXPECT_TRUE(det.score_batch(std::span<const data::Clip>()).empty());
  const std::vector<data::Clip> none;
  EXPECT_TRUE(det.score_batch(none).empty());
}

TEST(Detector, SingleClipScoreBatchMatchesScore) {
  const ThresholdedDensityDetector det(0.1f);
  data::Clip c;
  c.window_nm = 1024;
  c.rects = {Rect(0, 0, 300, 300)};
  const std::vector<data::Clip> clips = {c};
  const auto batch = det.score_batch(clips);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], det.score(clips[0]));
}

TEST(CnnDetector, EmptyAndSingleClipScoreBatch) {
  // The CNN override short-circuits an empty span before touching the
  // feature extractor, and a batch of one must equal score() bit for bit.
  CnnDetector det("cnn-batch-edge", {});
  Rng rng(17);
  det.network().init(rng);
  EXPECT_TRUE(det.score_batch(std::span<const data::Clip>()).empty());
  const auto suite = tiny_suite(2, 2);
  const std::vector<data::Clip> one = {suite.test[0]};
  const auto batch = det.score_batch(one);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], det.score(one[0]));
}

TEST(CnnDetector, RejectsClipOfAnotherWindowSize) {
  // The DCT extractor's grid is fixed at window_nm 1024; a 2048-nm clip
  // must fail at extraction with a message naming both sizes, not later
  // inside the network.
  CnnDetector det("cnn-window", {});
  data::Clip clip;
  clip.window_nm = 2048;
  clip.rects = {Rect(0, 0, 600, 600)};
  try {
    (void)det.score(clip);
    FAIL() << "a 2048-nm clip was scored";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("window_nm 2048"), std::string::npos) << what;
    EXPECT_NE(what.find("16x16 block grid of window_nm 1024"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(det.score_batch(std::vector<data::Clip>{clip}), Error);
}

/// Density detector whose score() throws on its Nth invocation
/// (process-wide across threads).
class FaultyScoreDetector : public testkit::DensityCutDetector {
 public:
  explicit FaultyScoreDetector(int fail_on_call) : fail_on_(fail_on_call) {}

  float score(const data::Clip& clip) const override {
    if (calls_.fetch_add(1) + 1 == fail_on_) {
      throw Error("injected score fault");
    }
    return DensityCutDetector::score(clip);
  }

 private:
  int fail_on_;
  mutable std::atomic<int> calls_{0};
};

TEST(Scan, DetectorFaultMidScanPropagatesAndScansRecover) {
  // A detector that throws on its second score call inside a
  // two-thread dedup scan: the scan must rethrow (not hang or deadlock),
  // and a subsequent clean scan over the same chip on the same pool must
  // match the naive baseline.
  ThreadPool pool(4);
  const gds::Library lib =
      synth::build_chip(synth::StyleConfig{}, 2, 2, 555, 4);
  const ChipIndex chip = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  cfg.dedup = true;
  cfg.threads = 2;

  const FaultyScoreDetector faulty(/*fail_on_call=*/2);
  EXPECT_THROW(scan_chip(chip, faulty, cfg, pool), Error);

  const testkit::DensityCutDetector clean(0.10f);
  ScanConfig naive_cfg;
  naive_cfg.window_nm = cfg.window_nm;
  naive_cfg.stride_nm = cfg.stride_nm;
  const ScanResult want = testkit::naive_scan(chip, clean, naive_cfg);
  const ScanResult got = scan_chip(chip, clean, cfg, pool);
  EXPECT_EQ(got.windows_total, want.windows_total);
  EXPECT_EQ(got.flagged, want.flagged);
  EXPECT_EQ(got.hits, want.hits);
}

TEST(Scan, ThreadsZeroUsesHardwareConcurrency) {
  synth::StyleConfig style;
  const auto lib = synth::build_chip(style, 2, 2, 33);
  const auto index = ChipIndex::from_library(lib, "TOP", synth::kChipLayer);
  const ThresholdedDensityDetector det(0.05f);
  ScanConfig cfg;
  cfg.threads = 1;
  const auto serial = scan_chip(index, det, cfg);
  cfg.threads = 0;  // auto: one shard per hardware thread
  const auto auto_sharded = scan_chip(index, det, cfg);
  EXPECT_EQ(auto_sharded.hits, serial.hits);
  EXPECT_EQ(auto_sharded.windows_total, serial.windows_total);
}


// -------------------------------------------------------------------- auc --

TEST(RocAuc, PerfectRankingIsOne) {
  data::Dataset ds;
  for (int i = 0; i < 4; ++i) {
    data::Clip c;
    c.label = i < 2 ? data::Label::Hotspot : data::Label::NonHotspot;
    ds.add(std::move(c));
  }
  EXPECT_DOUBLE_EQ(roc_auc({0.9f, 0.8f, 0.2f, 0.1f}, ds), 1.0);
}

TEST(RocAuc, InvertedRankingIsZero) {
  data::Dataset ds;
  for (int i = 0; i < 4; ++i) {
    data::Clip c;
    c.label = i < 2 ? data::Label::Hotspot : data::Label::NonHotspot;
    ds.add(std::move(c));
  }
  EXPECT_DOUBLE_EQ(roc_auc({0.1f, 0.2f, 0.8f, 0.9f}, ds), 0.0);
}

TEST(RocAuc, ConstantScoresGiveHalf) {
  data::Dataset ds;
  for (int i = 0; i < 6; ++i) {
    data::Clip c;
    c.label = i < 3 ? data::Label::Hotspot : data::Label::NonHotspot;
    ds.add(std::move(c));
  }
  EXPECT_DOUBLE_EQ(roc_auc(std::vector<float>(6, 0.5f), ds), 0.5);
}

TEST(RocAuc, SingleClassGivesHalf) {
  data::Dataset ds;
  data::Clip c;
  c.label = data::Label::Hotspot;
  ds.add(std::move(c));
  EXPECT_DOUBLE_EQ(roc_auc({0.3f}, ds), 0.5);
}

TEST(RocAuc, SizeMismatchThrows) {
  data::Dataset ds;
  data::Clip c;
  ds.add(std::move(c));
  EXPECT_THROW(roc_auc({0.1f, 0.2f}, ds), Error);
}

TEST(RocAuc, NonFiniteScoresThrow) {
  // NaN compares false against everything, so pre-check it would slip
  // through the sorted U-statistic and silently corrupt the AUC instead of
  // failing. All three non-finite kinds must be rejected.
  data::Dataset ds;
  for (int i = 0; i < 2; ++i) {
    data::Clip c;
    c.label = i == 0 ? data::Label::Hotspot : data::Label::NonHotspot;
    ds.add(std::move(c));
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW(roc_auc({nan, 0.2f}, ds), Error);
  EXPECT_THROW(roc_auc({0.9f, inf}, ds), Error);
  EXPECT_THROW(roc_auc({-inf, 0.2f}, ds), Error);
  EXPECT_DOUBLE_EQ(roc_auc({0.9f, 0.2f}, ds), 1.0);  // finite still fine
}

}  // namespace
}  // namespace lhd::core
