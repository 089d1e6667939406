// Property-based suites over the parity-critical production kernels:
// serial-vs-parallel scan equality, fast-vs-naive DCT, raster/union-area
// metamorphic identities, and serialization fixpoints. Every failure
// prints a reproducing LHD_PROPERTY_SEED line (see docs/TESTING.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
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

core::ScanConfig parity_config() {
  core::ScanConfig cfg;
  cfg.window_nm = 1024;
  cfg.stride_nm = 512;
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
    const core::ScanConfig cfg = parity_config();
    const DensityCutDetector* pre = rng.next_bool() ? &prefilter : nullptr;
    expect_scan_parity(chip, detector, cfg, {2, 3, 8}, pool, pre);
    expect_scan_parity(small, fixed_cnn(), cfg, {3}, pool, pre);
  });
}

TEST(Property, DedupScanParityAcrossThreadsAndCapacities) {
  ThreadPool pool(4);
  const DensityCutDetector detector(0.05f);
  // Capacity 0 (memoization off) and 1 (constant thrash) are the eviction
  // edge cases.
  CHECK_PROPERTY("dedup-scan-parity", 24, [&](Rng& rng, std::size_t size) {
    const core::ChipIndex chip(random_rects(rng, 8 + size * 8, 8192, 16, 900));
    const core::ChipIndex small(random_rects(rng, 4 + size * 2, 4096, 16, 900));
    const core::ScanConfig cfg = parity_config();
    expect_dedup_scan_parity(chip, detector, cfg, {1, 2, 8}, {0, 1, 4096},
                             pool);
    expect_dedup_scan_parity(small, fixed_cnn(), cfg, {1, 3}, {1, 4096},
                             pool);
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
    const core::ScanConfig cfg = parity_config();
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
    const core::ScanConfig cfg = parity_config();
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

TEST(Property, DctTensorMatchesBlockReferenceBitForBit) {
  CHECK_PROPERTY("dct-tensor-parity", 64, [](Rng& rng, std::size_t size) {
    // Every block side with every coefficient-count regime: DC only, one
    // row's worth, the production 16 (or all, for small blocks), and the
    // whole block.
    static constexpr int kSides[] = {2, 4, 8, 16};
    const int b = kSides[size % 4];
    const int counts[] = {1, b, std::min(16, b * b), b * b};
    const int coefficients = counts[(size / 4) % 4];
    // Independent grid sides, so most rasters are not square.
    const int gw = static_cast<int>(rng.next_int(1, 9));
    const int gh = static_cast<int>(rng.next_int(1, 9));
    // Raster-like pixels: exact 0 and 1 (the rasterizer's common values)
    // mixed with fractional coverage and a few negatives.
    geom::FloatImage raster(gw * b, gh * b);
    for (int y = 0; y < raster.height(); ++y) {
      for (int x = 0; x < raster.width(); ++x) {
        const auto pick = rng.next_int(0, 3);
        raster.at(x, y) = pick == 0   ? 0.0f
                          : pick == 1 ? 1.0f
                          : pick == 2 ? static_cast<float>(rng.next_double())
                                      : static_cast<float>(
                                            rng.next_double(-1.0, 1.0));
      }
    }
    const feature::DctConfig cfg{8, b, coefficients};
    const auto fast = feature::dct_tensor_from_raster(raster, cfg);
    const auto ref = dct_tensor_reference(raster, cfg);
    if (fast.channels != ref.channels || fast.height != ref.height ||
        fast.width != ref.width || fast.values.size() != ref.values.size()) {
      throw PropertyFailure("dct tensor shape differs from the reference");
    }
    if (std::memcmp(fast.values.data(), ref.values.data(),
                    fast.values.size() * sizeof(float)) != 0) {
      std::size_t i = 0;
      while (std::memcmp(&fast.values[i], &ref.values[i], sizeof(float)) ==
             0) {
        ++i;
      }
      std::ostringstream os;
      os << "dct tensor (b=" << b << ", k=" << coefficients << ", " << gw
         << "x" << gh << " blocks) differs from the reference at value "
         << i << ": " << fast.values[i] << " vs " << ref.values[i];
      throw PropertyFailure(os.str());
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

// Conv2d/Linear backward (GEMM products) vs testkit's double-precision
// definition loops, at relative tolerance 1e-4: |fast − ref| ≤
// 1e-4·(1 + max magnitude) per gradient element. Every case walks all
// (kernel, pad) pairs for k ∈ {1, 3, 5}, pad ∈ {0, (k−1)/2}; channel
// counts and spatial sides grow with size so the later cases cross the
// GEMM's block edges. The coverage counters pin that the schedule really
// reaches out_c off the 4- and 6-row slivers, krows > 96 (more than one
// A block) and spatial > 256 (more than one K panel).
TEST(Property, NnBackwardParityGemmVsReference) {
  constexpr double kTol = 1e-4;
  int odd_out_c = 0, multi_a_block = 0, multi_k_panel = 0;
  CHECK_PROPERTY("nn-backward-parity", 24, [&](Rng& rng, std::size_t size) {
    for (const int k : {1, 3, 5}) {
      for (const int pad : {0, (k - 1) / 2}) {
        ConvShape shape;
        shape.batch = 1 + static_cast<int>(rng.next_below(3));
        shape.in_channels = 1 + static_cast<int>(rng.next_below(1 + size / 3));
        shape.out_channels = 1 + static_cast<int>(rng.next_below(14));
        shape.kernel = k;
        shape.pad = pad;
        const int min_side = std::max(1, k - 2 * pad);
        const std::size_t side_range = 2 + size / 2;
        shape.height = min_side + static_cast<int>(rng.next_below(side_range));
        shape.width = min_side + static_cast<int>(rng.next_below(side_range));
        expect_conv2d_backward_parity(shape, rng, kTol);

        const int oh = shape.height + 2 * pad - k + 1;
        const int ow = shape.width + 2 * pad - k + 1;
        odd_out_c += shape.out_channels % 4 != 0 && shape.out_channels % 6 != 0;
        multi_a_block += shape.in_channels * k * k > 96;
        multi_k_panel += oh * ow > 256;
      }
    }
    expect_linear_backward_parity(
        1 + static_cast<int>(rng.next_below(3 + size)),
        1 + static_cast<int>(rng.next_below(8 + 8 * size)),
        1 + static_cast<int>(rng.next_below(4 + size)), rng, kTol);
  });
  EXPECT_GT(odd_out_c, 0);
  EXPECT_GT(multi_a_block, 0);
  EXPECT_GT(multi_k_panel, 0);
}

}  // namespace
}  // namespace lhd::testkit
