// Property-based suites over the parity-critical production kernels:
// serial-vs-parallel scan equality, fast-vs-naive DCT, raster/boolean
// metamorphic identities, and serialization fixpoints. Every failure
// prints a reproducing LHD_PROPERTY_SEED line (see docs/TESTING.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "lhd/core/cnn_detector.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/data/dataset.hpp"
#include "lhd/feature/dct.hpp"
#include "lhd/gds/model.hpp"
#include "lhd/geom/polygon.hpp"
#include "lhd/geom/raster.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/testkit/testkit.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::testkit {
namespace {

using geom::Rect;

// ------------------------------------------------------------ scan parity
//
// Every scan mode must give the testkit naive_scan oracle's hit list, ==
// on window and score, for both a geometry-density detector and a CNN
// whose DCT features depend on where geometry sits in the window.

/// An untrained CnnDetector with fixed random weights, its threshold at
/// the median score over the non-empty windows of one fixed random layout,
/// so a good share of windows are hits.
const core::CnnDetector& fixed_cnn() {
  static const std::unique_ptr<core::CnnDetector> cnn = [] {
    auto det = std::make_unique<core::CnnDetector>("parity-cnn");
    Rng rng(0xC0FFEE);
    det->network().init(rng);
    const core::ChipIndex chip(random_rects(rng, 48, 4096, 16, 900));
    std::vector<float> scores;
    for (geom::Coord y = 0; y < 4096; y += 512) {
      for (geom::Coord x = 0; x < 4096; x += 512) {
        data::Clip clip;
        clip.rects = chip.query(Rect(x, y, x + 1024, y + 1024));
        clip.window_nm = 1024;
        if (!clip.rects.empty()) scores.push_back(det->score(clip));
      }
    }
    std::sort(scores.begin(), scores.end());
    det->set_threshold(scores[scores.size() / 2]);
    return det;
  }();
  return *cnn;
}

core::ScanConfig parity_config(Rng& rng) {
  core::ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
  cfg.skip_empty = rng.next_bool();
  return cfg;
}

TEST(Property, ScanParityAcrossThreadCounts) {
  ThreadPool pool(4);
  const DensityCutDetector detector(0.05f);
  const DensityCutDetector prefilter(0.02f);
  // 64 random layouts; `size` scales the rect soup so shrinking narrows a
  // failure to the smallest layout that still diverges. Half the cases
  // scan two-stage behind a density prefilter. The CNN, ~1000x costlier
  // per window, scans a quarter-area layout of its own.
  CHECK_PROPERTY("scan-parity", 64, [&](Rng& rng, std::size_t size) {
    const core::ChipIndex chip(random_rects(rng, 8 + size * 8, 8192, 16, 900));
    const core::ChipIndex small(random_rects(rng, 4 + size * 2, 4096, 16, 900));
    const core::ScanConfig cfg = parity_config(rng);
    const DensityCutDetector* pre = rng.next_bool() ? &prefilter : nullptr;
    expect_scan_parity(chip, detector, cfg, {2, 3, 8}, pool, pre);
    expect_scan_parity(small, fixed_cnn(), cfg, {3}, pool, pre);
  });
}

TEST(Property, DedupScanParityAcrossThreadsCapacitiesAndBatches) {
  ThreadPool pool(4);
  const DensityCutDetector detector(0.05f);
  // Capacity 0 (memoization off) and 1 (constant thrash) are the eviction
  // edge cases; batch 1 flushes every miss immediately.
  CHECK_PROPERTY("dedup-scan-parity", 24, [&](Rng& rng, std::size_t size) {
    const core::ChipIndex chip(random_rects(rng, 8 + size * 8, 8192, 16, 900));
    const core::ChipIndex small(random_rects(rng, 4 + size * 2, 4096, 16, 900));
    const core::ScanConfig cfg = parity_config(rng);
    expect_dedup_scan_parity(chip, detector, cfg, {1, 2, 8}, {0, 1, 4096},
                             {1, 32}, pool);
    expect_dedup_scan_parity(small, fixed_cnn(), cfg, {1, 3}, {1, 4096},
                             {1, 32}, pool);
  });
}

TEST(Property, HierarchicalScanParityOnSynthChips) {
  ThreadPool pool(4);
  const DensityCutDetector detector(0.05f);
  // The synth generator's tile_variants knob is the honest testbed: 0 makes
  // every tile a distinct cell (no reuse — replay degenerates to the
  // stitch bands), 1 makes the chip one repeated cell (maximal reuse), 4
  // repeats a small macro. Parity must hold in all regimes, across thread
  // counts and dedup on/off (the oracle's inner matrix).
  CHECK_PROPERTY("hier-scan-parity-synth", 12, [&](Rng& rng,
                                                   std::size_t size) {
    synth::StyleConfig style;
    const int tiles = 2 + static_cast<int>(size % 3);
    static constexpr int kVariants[] = {0, 1, 4};
    const int variants = kVariants[rng.next_below(3)];
    const auto lib = synth::build_chip(style, tiles, tiles,
                                       rng.next_below(1u << 20), variants);
    const core::ScanConfig cfg = parity_config(rng);
    expect_hierarchical_scan_parity(lib, "TOP", synth::kChipLayer, detector,
                                    cfg, {1, 2, 8}, pool);
    expect_hierarchical_scan_parity(lib, "TOP", synth::kChipLayer,
                                    fixed_cnn(), cfg, {1, 3}, pool);
  });
}

TEST(Property, HierarchicalScanParityOnRandomLibraries) {
  ThreadPool pool(4);
  const DensityCutDetector detector(0.05f);
  // random_library places leaves through every mirror × angle combination
  // and through AREF grids — the transform/replay paths a tiled synth chip
  // (identity transforms only) never exercises. Loose TOP-level geometry
  // is added on the scanned layer so windows mix instance geometry with
  // top-frame shapes (TOP itself becomes one more "instance" at identity).
  CHECK_PROPERTY("hier-scan-parity-gds", 16, [&](Rng& rng,
                                                 std::size_t size) {
    auto lib = random_library(rng, 4 + size);
    gds::Structure* top = lib.find("TOP");
    const std::size_t loose = rng.next_below(3);
    for (std::size_t i = 0; i < loose; ++i) {
      gds::Boundary b;
      b.layer = 1;
      b.polygon = geom::Polygon::from_rect(
          random_rect(rng, 8000, 16, 900).shifted(-4000, -4000));
      top->add(b);
    }
    const core::ScanConfig cfg = parity_config(rng);
    expect_hierarchical_scan_parity(lib, "TOP", 1, detector, cfg, {1, 3},
                                    pool);
    // The CNN runs on the smaller half of the libraries (shrinking keeps
    // a failing case in that half), which keep every transform and AREF
    // path but cost a fraction of the CNN windows.
    if (size <= 24) {
      expect_hierarchical_scan_parity(lib, "TOP", 1, fixed_cnn(), cfg, {3},
                                      pool);
    }
  });
}

// ------------------------------------------------------ transform algebra

TEST(Property, TransformComposeMatchesSequentialApplication) {
  // Exhaustive over the D4 × D4 orientation pairs (the mirrored-inner
  // rotation flip in compose() is easy to get wrong and only shows up when
  // outer.mirror_x && inner.angle != 0), randomized over origins/points.
  CHECK_PROPERTY("transform-compose", 48, [](Rng& rng, std::size_t) {
    const auto coord = [&rng](std::int64_t lo, std::int64_t hi) {
      return static_cast<geom::Coord>(rng.next_int(lo, hi));
    };
    for (const bool outer_mirror : {false, true}) {
      for (int outer_angle = 0; outer_angle < 360; outer_angle += 90) {
        for (const bool inner_mirror : {false, true}) {
          for (int inner_angle = 0; inner_angle < 360; inner_angle += 90) {
            gds::Transform outer;
            outer.mirror_x = outer_mirror;
            outer.angle_deg = outer_angle;
            outer.origin = {coord(-20000, 20000), coord(-20000, 20000)};
            gds::Transform inner;
            inner.mirror_x = inner_mirror;
            inner.angle_deg = inner_angle;
            inner.origin = {coord(-20000, 20000), coord(-20000, 20000)};
            const gds::Transform composed = outer.compose(inner);
            for (int k = 0; k < 4; ++k) {
              const geom::Point p{coord(-30000, 30000), coord(-30000, 30000)};
              const geom::Point want = outer.apply(inner.apply(p));
              const geom::Point got = composed.apply(p);
              if (!(got == want)) {
                std::ostringstream os;
                os << "compose(outer{m=" << outer_mirror
                   << ",a=" << outer_angle << "}, inner{m=" << inner_mirror
                   << ",a=" << inner_angle << "}) maps (" << p.x << "," << p.y
                   << ") to (" << got.x << "," << got.y << "), sequential "
                   << "application gives (" << want.x << "," << want.y << ")";
                throw PropertyFailure(os.str());
              }
            }
          }
        }
      }
    }
  });
}

TEST(Property, TransformInverseRoundTripsPoints) {
  CHECK_PROPERTY("transform-inverse", 48, [](Rng& rng, std::size_t) {
    const auto coord = [&rng](std::int64_t lo, std::int64_t hi) {
      return static_cast<geom::Coord>(rng.next_int(lo, hi));
    };
    for (const bool mirror : {false, true}) {
      for (int angle = 0; angle < 360; angle += 90) {
        gds::Transform t;
        t.mirror_x = mirror;
        t.angle_deg = angle;
        t.origin = {coord(-20000, 20000), coord(-20000, 20000)};
        const gds::Transform inv = t.inverse();
        for (int k = 0; k < 4; ++k) {
          const geom::Point p{coord(-30000, 30000), coord(-30000, 30000)};
          if (!(inv.apply(t.apply(p)) == p) || !(t.apply(inv.apply(p)) == p)) {
            std::ostringstream os;
            os << "inverse round-trip failed for {m=" << mirror
               << ",a=" << angle << "} at (" << p.x << "," << p.y << ")";
            throw PropertyFailure(os.str());
          }
          // Rects round-trip too: D4 maps half-open cell sets exactly.
          const Rect r(p.x, p.y, p.x + coord(1, 500), p.y + coord(1, 500));
          if (!(inv.apply(t.apply(r)) == r)) {
            std::ostringstream os;
            os << "rect inverse round-trip failed for {m=" << mirror
               << ",a=" << angle << "}";
            throw PropertyFailure(os.str());
          }
        }
      }
    }
  });
}

// ------------------------------------------------------------- DCT parity

TEST(Property, DctMatchesNaiveReference) {
  CHECK_PROPERTY("dct-parity", 64, [](Rng& rng, std::size_t size) {
    // Cycle through the block sizes the feature extractor meets in
    // practice; 8 is the production default.
    static constexpr int kSides[] = {4, 8, 16};
    const int n = kSides[size % 3];
    expect_dct_parity(random_block(rng, n), n);
  });
}

TEST(Property, DctOfConstantBlockIsDcOnly) {
  CHECK_PROPERTY("dct-dc-only", 16, [](Rng& rng, std::size_t) {
    const int n = 8;
    const auto level = static_cast<float>(rng.next_double());
    std::vector<float> block(64, level), out(64);
    feature::dct2d(block.data(), out.data(), n);
    // DC = n * level under orthonormal scaling; every AC term ~ 0.
    EXPECT_NEAR(out[0], n * level, 1e-4);
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_NEAR(out[i], 0.0f, 1e-4);
    }
  });
}

// ------------------------------------------- raster metamorphic identities

TEST(Property, TranslateThenRasterizeEqualsRasterizeThenShift) {
  CHECK_PROPERTY("raster-translate", 48, [](Rng& rng, std::size_t size) {
    const geom::Coord window = 1024, pixel = 8;
    // Keep rects inside the window even after the shift.
    auto rects = random_rects(rng, 2 + size, window / 2, 4, 200);
    const auto dx_px = static_cast<geom::Coord>(rng.next_int(0, 32));
    const auto dy_px = static_cast<geom::Coord>(rng.next_int(0, 32));
    auto shifted = rects;
    for (auto& r : shifted) {
      r = Rect(r.xlo + dx_px * pixel, r.ylo + dy_px * pixel,
               r.xhi + dx_px * pixel, r.yhi + dy_px * pixel);
    }
    const auto base = geom::rasterize(rects, window, pixel);
    const auto moved = geom::rasterize(shifted, window, pixel);
    for (int y = 0; y < base.height(); ++y) {
      for (int x = 0; x < base.width(); ++x) {
        const float want = base.get_or(x - dx_px, y - dy_px, 0.0f);
        if (moved.at(x, y) != want) {
          std::ostringstream os;
          os << "pixel (" << x << "," << y << ") = " << moved.at(x, y)
             << ", want " << want << " after shift (" << dx_px << ","
             << dy_px << ") px";
          throw PropertyFailure(os.str());
        }
      }
    }
  });
}

TEST(Property, RasterizeIsPermutationInvariant) {
  // The exact memo key sorts a window's rects, so sorting must never
  // change a score: at the in-tree 8 nm pixel every per-pixel coverage
  // term is an exact multiple of 1/64 and the saturating sum does not
  // depend on order, overlapping rects included.
  CHECK_PROPERTY("raster-permute", 48, [](Rng& rng, std::size_t size) {
    const geom::Coord window = 1024, pixel = 8;
    auto rects = random_rects(rng, 2 + size * 2, window, 4, 400);
    const auto base = geom::rasterize(rects, window, pixel);
    rng.shuffle(rects);
    if (!(geom::rasterize(rects, window, pixel) == base)) {
      throw PropertyFailure("raster changed under a permutation of " +
                            std::to_string(rects.size()) + " rects");
    }
  });
}

TEST(Property, FlipXIsAnInvolutionOnRasters) {
  CHECK_PROPERTY("raster-flip-involution", 32,
                 [](Rng& rng, std::size_t size) {
    const auto rects = random_rects(rng, 2 + size, 512, 4, 120);
    const auto img = geom::rasterize(rects, 512, 8);
    EXPECT_EQ(geom::flip_x(geom::flip_x(img)), img);
    EXPECT_EQ(geom::flip_y(geom::flip_y(img)), img);
  });
}

// --------------------------------------------- boolean (union_area) identities

TEST(Property, UnionAreaIsTranslationInvariant) {
  CHECK_PROPERTY("union-area-translate", 48, [](Rng& rng, std::size_t size) {
    auto rects = random_rects(rng, 1 + size, 4096, 2, 700);
    const auto area = geom::union_area(rects);
    const auto dx = static_cast<geom::Coord>(rng.next_int(-5000, 5000));
    const auto dy = static_cast<geom::Coord>(rng.next_int(-5000, 5000));
    for (auto& r : rects) {
      r = Rect(r.xlo + dx, r.ylo + dy, r.xhi + dx, r.yhi + dy);
    }
    EXPECT_EQ(geom::union_area(rects), area);
  });
}

TEST(Property, UnionAreaIsPermutationInvariantAndBounded) {
  CHECK_PROPERTY("union-area-permute", 48, [](Rng& rng, std::size_t size) {
    auto rects = random_rects(rng, 1 + size, 2048, 2, 500);
    const auto area = geom::union_area(rects);
    std::int64_t sum = 0;
    for (const auto& r : rects) sum += r.area();
    EXPECT_LE(area, sum);          // union never exceeds the naive sum
    EXPECT_GT(area, 0);            // generators never emit empty rects
    rng.shuffle(rects);
    EXPECT_EQ(geom::union_area(rects), area);
  });
}

// ------------------------------------------------------ serialization fixpoints

TEST(Property, GdsWriteReadWriteFixpoint) {
  CHECK_PROPERTY("gds-fixpoint", 48, [](Rng& rng, std::size_t size) {
    expect_gds_fixpoint(random_library(rng, size));
  });
}

TEST(Property, DatasetSaveLoadSaveFixpoint) {
  CHECK_PROPERTY("dataset-fixpoint", 32, [](Rng& rng, std::size_t size) {
    data::Dataset ds("prop");
    for (std::size_t i = 0; i < 1 + size / 2; ++i) {
      ds.add(random_clip(rng, 1 + rng.next_below(12)));
    }
    expect_dataset_fixpoint(ds);
  });
}

// ------------------------------------------------------------- nn kernels

TEST(Property, NnKernelParityFastVsReference) {
  CHECK_PROPERTY("nn-kernel-parity", 32, [](Rng& rng, std::size_t size) {
    expect_nn_kernel_parity(rng, size);
  });
}

}  // namespace
}  // namespace lhd::testkit
