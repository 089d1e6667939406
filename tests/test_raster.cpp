// Tests for lhd/geom/raster: coverage rasterization, image ops, morphology,
// connected components.

#include <gtest/gtest.h>

#include <algorithm>

#include "lhd/geom/raster.hpp"
#include "lhd/util/check.hpp"

namespace lhd::geom {
namespace {

// --------------------------------------------------------------- image ---

TEST(Image, ConstructAndAccess) {
  FloatImage img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_FLOAT_EQ(img.at(2, 1), 0.5f);
  img.at(2, 1) = 1.0f;
  EXPECT_FLOAT_EQ(img.at(2, 1), 1.0f);
}

TEST(Image, GetOrReturnsOutsideValue) {
  ByteImage img(2, 2, 1);
  EXPECT_EQ(img.get_or(-1, 0, 9), 9);
  EXPECT_EQ(img.get_or(0, 2, 9), 9);
  EXPECT_EQ(img.get_or(1, 1, 9), 1);
}

TEST(Image, RejectsNonPositiveDims) {
  EXPECT_THROW(FloatImage(0, 5), Error);
  EXPECT_THROW(FloatImage(5, -1), Error);
}

// ------------------------------------------------------------- rasterize --

TEST(Rasterize, FullCellCoverage) {
  // One rect exactly covering pixels (1,1)..(2,2) at 8 nm pixels.
  const auto img = rasterize({Rect(8, 8, 24, 24)}, 64, 8);
  EXPECT_EQ(img.width(), 8);
  EXPECT_FLOAT_EQ(img.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(img.at(2, 2), 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(3, 1), 0.0f);
}

TEST(Rasterize, FractionalCoverage) {
  // Rect covering half of pixel (0,0): x in [0,4) of [0,8).
  const auto img = rasterize({Rect(0, 0, 4, 8)}, 64, 8);
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.5f);
  // Quarter coverage.
  const auto img2 = rasterize({Rect(0, 0, 4, 4)}, 64, 8);
  EXPECT_FLOAT_EQ(img2.at(0, 0), 0.25f);
}

TEST(Rasterize, OverlapClampsToOne) {
  const auto img = rasterize({Rect(0, 0, 8, 8), Rect(0, 0, 8, 8)}, 64, 8);
  EXPECT_FLOAT_EQ(img.at(0, 0), 1.0f);
}

TEST(Rasterize, TotalCoverageEqualsArea) {
  const std::vector<Rect> rects = {Rect(3, 5, 37, 19), Rect(40, 40, 64, 64)};
  const auto img = rasterize(rects, 64, 8);
  double total = 0;
  for (const float v : img.data()) total += v;
  const double expected = (34.0 * 14 + 24.0 * 24) / 64.0;  // px^2
  EXPECT_NEAR(total, expected, 1e-4);
}

TEST(Rasterize, ClipsToWindow) {
  const auto img = rasterize({Rect(-100, -100, 200, 200)}, 64, 8);
  for (const float v : img.data()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Rasterize, RejectsBadPixelSize) {
  EXPECT_THROW(rasterize({}, 64, 7), Error);   // 7 does not divide 64
  EXPECT_THROW(rasterize({}, 64, 0), Error);
}

TEST(Rasterize, EmptyRectListGivesBlank) {
  const auto img = rasterize({}, 64, 8);
  for (const float v : img.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

// -------------------------------------------------------------- binarize --

TEST(Binarize, ThresholdBoundary) {
  FloatImage img(2, 1);
  img.at(0, 0) = 0.49f;
  img.at(1, 0) = 0.50f;
  const auto b = binarize(img, 0.5f);
  EXPECT_EQ(b.at(0, 0), 0);
  EXPECT_EQ(b.at(1, 0), 1);
}

// ------------------------------------------------- connected components --

TEST(ConnectedComponents, CountsSeparateBlobs) {
  ByteImage img(10, 10, 0);
  img.at(1, 1) = 1;
  img.at(1, 2) = 1;
  img.at(8, 8) = 1;
  int n = 0;
  const auto labels = connected_components(img, &n);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(labels.at(1, 1), labels.at(1, 2));
  EXPECT_NE(labels.at(1, 1), labels.at(8, 8));
  EXPECT_EQ(labels.at(0, 0), 0);
}

TEST(ConnectedComponents, DiagonalIsNotConnected) {
  ByteImage img(4, 4, 0);
  img.at(0, 0) = 1;
  img.at(1, 1) = 1;
  int n = 0;
  connected_components(img, &n);
  EXPECT_EQ(n, 2);
}

TEST(ConnectedComponents, EmptyImage) {
  ByteImage img(5, 5, 0);
  int n = -1;
  connected_components(img, &n);
  EXPECT_EQ(n, 0);
}

TEST(ConnectedComponents, FullImageIsOneComponent) {
  ByteImage img(6, 6, 1);
  int n = 0;
  const auto labels = connected_components(img, &n);
  EXPECT_EQ(n, 1);
  EXPECT_EQ(labels.at(0, 0), 1);
  EXPECT_EQ(labels.at(5, 5), 1);
}

TEST(ConnectedComponents, UShapeIsOneComponent) {
  ByteImage img(5, 5, 0);
  for (int y = 0; y < 5; ++y) {
    img.at(0, y) = 1;
    img.at(4, y) = 1;
  }
  for (int x = 0; x < 5; ++x) img.at(x, 0) = 1;
  int n = 0;
  connected_components(img, &n);
  EXPECT_EQ(n, 1);
}

// ------------------------------------------------------------ morphology --

TEST(Morphology, DilateGrowsByRadius) {
  ByteImage img(9, 9, 0);
  img.at(4, 4) = 1;
  const auto d = dilate(img, 2);
  EXPECT_EQ(std::count(d.data().begin(), d.data().end(), 1), 25);  // 5x5 ball
  EXPECT_EQ(d.at(2, 2), 1);
  EXPECT_EQ(d.at(1, 4), 0);
}

TEST(Morphology, DilateClipsAtImageBorder) {
  // Outside the image counts as background: a shape touching the edge
  // grows only inward, and an empty image stays empty.
  ByteImage img(6, 5, 0);
  img.at(0, 0) = 1;  // corner
  img.at(5, 2) = 1;  // right edge
  const auto d = dilate(img, 1);
  ByteImage want(6, 5, 0);
  for (int y = 0; y <= 1; ++y) {
    for (int x = 0; x <= 1; ++x) want.at(x, y) = 1;
  }
  for (int y = 1; y <= 3; ++y) {
    for (int x = 4; x <= 5; ++x) want.at(x, y) = 1;
  }
  EXPECT_EQ(d, want);
  const ByteImage blank(6, 5, 0);
  EXPECT_EQ(dilate(blank, 2), blank);
}

TEST(Morphology, ZeroRadiusIsIdentity) {
  ByteImage img(4, 4, 0);
  img.at(1, 2) = 1;
  EXPECT_EQ(dilate(img, 0), img);
}

TEST(Morphology, NegativeRadiusThrows) {
  ByteImage img(4, 4, 0);
  EXPECT_THROW(dilate(img, -1), Error);
}

}  // namespace
}  // namespace lhd::geom
