// Tests for lhd/litho: optics, resist, process corners, hotspot oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lhd/geom/raster.hpp"
#include "lhd/litho/oracle.hpp"
#include "lhd/litho/optics.hpp"

namespace lhd::litho {
namespace {

using geom::ByteImage;
using geom::FloatImage;
using geom::Rect;

FloatImage raster_of(const std::vector<Rect>& rects) {
  return geom::rasterize(rects, 1024, 8);  // 128x128 clip
}

// --------------------------------------------------------- gaussian blur --

TEST(GaussianBlur, PreservesUniformField) {
  FloatImage img(32, 32, 0.7f);
  const auto out = gaussian_blur(img, 2.5);
  for (const float v : out.data()) EXPECT_NEAR(v, 0.7f, 1e-5);
}

TEST(GaussianBlur, MassConservedWithMirrorPadding) {
  FloatImage img(64, 64, 0.0f);
  img.at(32, 32) = 1.0f;
  const auto out = gaussian_blur(img, 3.0);
  double sum = 0;
  for (const float v : out.data()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(GaussianBlur, PeakAtImpulseLocation) {
  FloatImage img(64, 64, 0.0f);
  img.at(20, 40) = 1.0f;
  const auto out = gaussian_blur(img, 2.0);
  float best = -1;
  int bx = -1, by = -1;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (out.at(x, y) > best) {
        best = out.at(x, y);
        bx = x;
        by = y;
      }
    }
  }
  EXPECT_EQ(bx, 20);
  EXPECT_EQ(by, 40);
}

TEST(GaussianBlur, IsSeparableAndSymmetric) {
  FloatImage img(64, 64, 0.0f);
  img.at(32, 32) = 1.0f;
  const auto out = gaussian_blur(img, 2.0);
  EXPECT_NEAR(out.at(30, 32), out.at(34, 32), 1e-6);
  EXPECT_NEAR(out.at(32, 30), out.at(32, 34), 1e-6);
  EXPECT_NEAR(out.at(30, 32), out.at(32, 30), 1e-6);
}

TEST(GaussianBlur, RejectsNonPositiveSigma) {
  FloatImage img(8, 8, 0.0f);
  EXPECT_THROW(gaussian_blur(img, 0.0), Error);
}

// ---------------------------------------------------------------- optics --

TEST(Simulator, LargePadPrintsNearDrawnEdge) {
  // A 512x512 nm pad centred in the clip; the printed edge must lie within
  // ~1.5 px of the drawn edge at nominal conditions.
  LithoSimulator sim;
  const auto mask = raster_of({Rect(256, 256, 768, 768)});
  const auto printed = sim.printed(mask, {"nominal", 1.0, 0.0});
  // Drawn edge columns are x = 32 and x = 96 (at 8 nm pixels).
  EXPECT_EQ(printed.at(64, 64), 1);   // centre prints
  EXPECT_EQ(printed.at(34, 64), 1);   // just inside
  EXPECT_EQ(printed.at(29, 64), 0);   // outside by > 1 px
  EXPECT_EQ(printed.at(10, 64), 0);   // far outside
}

TEST(Simulator, IntensityCentreOfPadIsNearOne) {
  LithoSimulator sim;
  const auto mask = raster_of({Rect(128, 128, 896, 896)});
  const auto air = sim.aerial(mask, 0.0);
  EXPECT_NEAR(air.at(64, 64), 1.0f, 0.02f);
}

TEST(Simulator, DoseScalesThreshold) {
  LithoSimulator sim;
  const auto mask = raster_of({Rect(256, 256, 768, 768)});
  const auto air = sim.aerial(mask, 0.0);
  const auto low = sim.threshold_aerial(air, 0.8);
  const auto high = sim.threshold_aerial(air, 1.2);
  // Higher dose prints a superset of pixels.
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      if (low.at(x, y)) {
        EXPECT_TRUE(high.at(x, y));
      }
    }
  }
  EXPECT_GT(std::count(high.data().begin(), high.data().end(), 1),
            std::count(low.data().begin(), low.data().end(), 1));
}

TEST(Simulator, DefocusReducesNarrowLinePeak) {
  LithoSimulator sim;
  // 40 nm wide line — near the printability limit.
  const auto mask = raster_of({Rect(256, 492, 768, 532)});
  const auto focused = sim.aerial(mask, 0.0);
  const auto defocused = sim.aerial(mask, 40.0);
  EXPECT_GT(focused.at(64, 64), defocused.at(64, 64));
}

TEST(Simulator, NarrowLineVanishesWideLineSurvives) {
  LithoSimulator sim;
  const ProcessCorner worst{"dose-", 0.95, 0.0};
  const auto narrow = raster_of({Rect(256, 496, 768, 520)});  // 24 nm
  const auto wide = raster_of({Rect(256, 472, 768, 544)});    // 72 nm
  EXPECT_EQ(sim.printed(narrow, worst).at(64, 63), 0);
  EXPECT_EQ(sim.printed(wide, worst).at(64, 63), 1);
}

TEST(Simulator, TightSpaceBridgesAtHighDose) {
  LithoSimulator sim;
  // Two 64 nm lines with a 24 nm space between them, centred at y=512.
  const auto mask = raster_of(
      {Rect(256, 424, 768, 500), Rect(256, 524, 768, 600)});
  const ProcessCorner hot{"dose+", 1.05, 0.0};
  const auto printed = sim.printed(mask, hot);
  EXPECT_EQ(printed.at(64, 64), 1);  // the space filled in
  // A comfortable 80 nm space does not bridge.
  const auto safe_mask = raster_of(
      {Rect(256, 396, 768, 472), Rect(256, 552, 768, 628)});
  EXPECT_EQ(sim.printed(safe_mask, hot).at(64, 64), 0);
}

TEST(Simulator, StandardCornersIncludeNominalAndExtremes) {
  const auto corners = standard_corners();
  ASSERT_GE(corners.size(), 3u);
  bool has_nominal = false, has_low = false, has_high = false;
  for (const auto& c : corners) {
    if (c.dose == 1.0 && c.defocus_nm == 0.0) has_nominal = true;
    if (c.dose < 1.0) has_low = true;
    if (c.dose > 1.0) has_high = true;
  }
  EXPECT_TRUE(has_nominal);
  EXPECT_TRUE(has_low);
  EXPECT_TRUE(has_high);
}

TEST(Simulator, RejectsBadConfig) {
  OpticsConfig cfg;
  cfg.sigma_main_nm = -1;
  EXPECT_THROW(LithoSimulator{cfg}, Error);
}

TEST(Simulator, RejectsBadDose) {
  LithoSimulator sim;
  FloatImage img(8, 8, 0.0f);
  EXPECT_THROW(sim.threshold_aerial(img, 0.0), Error);
}

// ---------------------------------------------------------------- oracle --

HotspotOracle default_oracle() { return HotspotOracle{OracleConfig{}}; }

TEST(Oracle, CleanSafePatternIsNotHotspot) {
  const auto oracle = default_oracle();
  // Three comfortable lines.
  const auto mask = raster_of({Rect(0, 300, 1024, 364),
                               Rect(0, 480, 1024, 544),
                               Rect(0, 660, 1024, 724)});
  const auto r = oracle.evaluate(mask);
  EXPECT_FALSE(r.hotspot);
  EXPECT_FALSE(r.pinch);
  EXPECT_FALSE(r.bridge);
}

TEST(Oracle, EmptyClipIsNotHotspot) {
  const auto oracle = default_oracle();
  EXPECT_FALSE(oracle.evaluate(FloatImage(128, 128, 0.0f)).hotspot);
}

TEST(Oracle, TightSpaceIsBridgeHotspot) {
  const auto oracle = default_oracle();
  // Two long lines 28 nm apart through the clip centre.
  const auto mask = raster_of(
      {Rect(0, 420, 1024, 498), Rect(0, 526, 1024, 604)});
  const auto r = oracle.evaluate(mask);
  EXPECT_TRUE(r.hotspot);
  EXPECT_TRUE(r.bridge);
}

TEST(Oracle, NarrowNeckIsPinchHotspot) {
  const auto oracle = default_oracle();
  // Wide wire with a 28 nm neck through the core.
  const auto mask = raster_of({Rect(0, 480, 420, 544),
                               Rect(420, 498, 620, 526),
                               Rect(620, 480, 1024, 544)});
  const auto r = oracle.evaluate(mask);
  EXPECT_TRUE(r.hotspot);
  EXPECT_TRUE(r.pinch);
  EXPECT_GE(r.worst_pinch_frags, 2);
}

TEST(Oracle, VanishingViaIsPinchHotspot) {
  const auto oracle = default_oracle();
  // 56 nm isolated via at the centre — below the 2-D printability limit.
  const auto mask = raster_of({Rect(484, 484, 540, 540)});
  const auto r = oracle.evaluate(mask);
  EXPECT_TRUE(r.hotspot);
  EXPECT_TRUE(r.pinch);
}

TEST(Oracle, LargeViaIsClean) {
  const auto oracle = default_oracle();
  const auto mask = raster_of({Rect(462, 462, 562, 562)});  // 100 nm via
  EXPECT_FALSE(oracle.evaluate(mask).hotspot);
}

TEST(Oracle, ViolationOutsideCoreIgnored) {
  const auto oracle = default_oracle();
  // Tight bridge pair near the top edge, outside the central core
  // (core is the middle 50%: y in [256, 768]).
  const auto mask = raster_of(
      {Rect(0, 830, 1024, 900), Rect(0, 928, 1024, 1000)});
  const auto r = oracle.evaluate(mask);
  EXPECT_FALSE(r.hotspot) << "bridge outside core must not count";
}

TEST(Oracle, WorstCornerIsNamed) {
  const auto oracle = default_oracle();
  const auto mask = raster_of(
      {Rect(0, 420, 1024, 498), Rect(0, 526, 1024, 604)});
  const auto r = oracle.evaluate(mask);
  ASSERT_TRUE(r.hotspot);
  EXPECT_FALSE(r.worst_corner.empty());
}

TEST(Oracle, EvaluateCornerSingleCorner) {
  const auto oracle = default_oracle();
  const auto mask = raster_of(
      {Rect(0, 420, 1024, 498), Rect(0, 526, 1024, 604)});
  // The 28 nm space bridges even at nominal under the default optics.
  const auto nominal = oracle.evaluate_corner(mask, {"nominal", 1.0, 0.0});
  const auto low = oracle.evaluate_corner(mask, {"dose-", 0.80, 0.0});
  EXPECT_TRUE(nominal.bridge);
  EXPECT_FALSE(low.bridge) << "severely underdosed exposure cannot bridge";
}

TEST(Oracle, SmallSliverDoesNotCountAsVanished) {
  const auto oracle = default_oracle();
  // A tiny 16x16 nm speck in the core: area (4 px) < min_shape_px.
  const auto mask = raster_of({Rect(504, 504, 520, 520)});
  EXPECT_FALSE(oracle.evaluate(mask).hotspot);
}

TEST(Oracle, RejectsBadConfig) {
  OracleConfig cfg;
  cfg.core_frac = 0.0;
  EXPECT_THROW(HotspotOracle{cfg}, Error);
  OracleConfig cfg2;
  cfg2.min_shape_px = 0;
  EXPECT_THROW(HotspotOracle{cfg2}, Error);
}

TEST(Oracle, SecondsPerClipIsPositiveAndCached) {
  const double a = HotspotOracle::seconds_per_clip(OracleConfig{});
  const double b = HotspotOracle::seconds_per_clip(OracleConfig{});
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
}

// Property sweep: line width printability is monotone — if width w prints
// through the worst corner, every wider line prints too.
class LineWidthMonotone : public ::testing::TestWithParam<int> {};

TEST_P(LineWidthMonotone, WiderLinesNeverPinchWhenNarrowerDoesNot) {
  const int w = GetParam();
  const auto oracle = default_oracle();
  auto make_line = [&](int width) {
    return raster_of({Rect(0, 512 - width / 2, 1024, 512 + width / 2)});
  };
  const bool narrow_ok = !oracle.evaluate(make_line(w)).pinch;
  const bool wide_ok = !oracle.evaluate(make_line(w + 16)).pinch;
  if (narrow_ok) {
    EXPECT_TRUE(wide_ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LineWidthMonotone,
                         ::testing::Values(24, 32, 40, 48, 56, 64, 72));

}  // namespace
}  // namespace lhd::litho
