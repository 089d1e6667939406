// Tests for lhd/geom: points, rects, polygons, decomposition, union area.

#include <gtest/gtest.h>

#include <algorithm>

#include "lhd/geom/polygon.hpp"
#include "lhd/geom/rect.hpp"
#include "lhd/testkit/testkit.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/rng.hpp"

namespace lhd::geom {
namespace {

// ------------------------------------------------------------------ rect --

TEST(Rect, BasicAccessors) {
  const Rect r(1, 2, 5, 7);
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 5);
  EXPECT_EQ(r.area(), 20);
  EXPECT_FALSE(r.empty());
}

TEST(Rect, EmptyWhenDegenerate) {
  EXPECT_TRUE(Rect(3, 3, 3, 9).empty());
  EXPECT_TRUE(Rect(5, 0, 2, 9).empty());
  EXPECT_EQ(Rect(5, 0, 2, 9).area(), 0);
}

TEST(Rect, ContainsPointHalfOpen) {
  const Rect r(0, 0, 10, 10);
  EXPECT_TRUE(r.contains(Point{0, 0}));
  EXPECT_TRUE(r.contains(Point{9, 9}));
  EXPECT_FALSE(r.contains(Point{10, 5}));
  EXPECT_FALSE(r.contains(Point{5, 10}));
  EXPECT_FALSE(r.contains(Point{-1, 5}));
}

TEST(Rect, ContainsRect) {
  const Rect outer(0, 0, 10, 10);
  EXPECT_TRUE(outer.contains(Rect(2, 2, 8, 8)));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Rect(5, 5, 11, 8)));
}

TEST(Rect, OverlapExcludesTouching) {
  const Rect a(0, 0, 5, 5);
  EXPECT_TRUE(a.overlaps(Rect(4, 4, 8, 8)));
  EXPECT_FALSE(a.overlaps(Rect(5, 0, 8, 5)));  // share an edge only
  EXPECT_FALSE(a.overlaps(Rect(6, 6, 8, 8)));
}

TEST(Rect, IntersectComputesOverlap) {
  const Rect a(0, 0, 10, 10);
  const Rect b(5, 5, 15, 15);
  EXPECT_EQ(a.intersect(b), Rect(5, 5, 10, 10));
  EXPECT_TRUE(a.intersect(Rect(20, 20, 30, 30)).empty());
}

TEST(Rect, UniteIsSmallestEnclosing) {
  const Rect a(0, 0, 2, 2);
  const Rect b(5, 5, 7, 9);
  EXPECT_EQ(a.unite(b), Rect(0, 0, 7, 9));
}

TEST(Rect, UniteWithEmptyIsIdentity) {
  const Rect a(1, 2, 3, 4);
  EXPECT_EQ(a.unite(Rect{}), a);
  EXPECT_EQ(Rect{}.unite(a), a);
}

TEST(Rect, ShiftedTranslatesEveryEdge) {
  const Rect r(2, 2, 6, 6);
  EXPECT_EQ(r.shifted(10, -2), Rect(12, 0, 16, 4));
}

// --------------------------------------------------------------- polygon --

TEST(Polygon, FromRectHasFourVertices) {
  const Polygon p = Polygon::from_rect(Rect(0, 0, 10, 5));
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.area(), 50);
  EXPECT_EQ(p.bbox(), Rect(0, 0, 10, 5));
}

TEST(Polygon, DropsGdsClosingVertex) {
  const Polygon p({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}});
  EXPECT_EQ(p.size(), 4u);
}

TEST(Polygon, RejectsTooFewVertices) {
  EXPECT_THROW(Polygon({{0, 0}, {1, 0}, {1, 1}}), Error);
}

TEST(Polygon, RejectsDiagonalEdges) {
  EXPECT_THROW(Polygon({{0, 0}, {4, 4}, {0, 4}, {0, 2}}), Error);
}

TEST(Polygon, RejectsNonAlternatingEdges) {
  // Two consecutive horizontal edges.
  EXPECT_THROW(Polygon({{0, 0}, {2, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}}),
               Error);
}

TEST(Polygon, RejectsEmptyRectSource) {
  EXPECT_THROW(Polygon::from_rect(Rect(1, 1, 1, 5)), Error);
}

TEST(Polygon, SignedAreaOrientation) {
  // CCW ring has positive signed area.
  const Polygon ccw({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  EXPECT_GT(ccw.signed_area2(), 0);
  const Polygon cw({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_LT(cw.signed_area2(), 0);
  EXPECT_EQ(ccw.area(), cw.area());
}

TEST(Polygon, ContainsFollowsHalfOpenConvention) {
  const Polygon p = Polygon::from_rect(Rect(0, 0, 10, 10));
  EXPECT_TRUE(p.contains(Point{0, 0}));
  EXPECT_TRUE(p.contains(Point{5, 5}));
  EXPECT_FALSE(p.contains(Point{10, 5}));
  EXPECT_FALSE(p.contains(Point{5, 10}));
}

TEST(Polygon, LShapeDecomposesExactly) {
  // L-shape: 10x10 square minus its top-right 5x5 quadrant.
  const Polygon l({{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}});
  const auto rects = l.decompose();
  std::int64_t total = 0;
  for (const auto& r : rects) total += r.area();
  EXPECT_EQ(total, 75);
  EXPECT_EQ(union_area(rects), 75);  // no overlaps among pieces
}

TEST(Polygon, TShapeDecomposes) {
  const Polygon t({{0, 0}, {30, 0}, {30, 10}, {20, 10}, {20, 20}, {10, 20},
                   {10, 10}, {0, 10}});
  const auto rects = t.decompose();
  EXPECT_EQ(union_area(rects), t.area());
}

TEST(Polygon, UShapeDecomposes) {
  const Polygon u({{0, 0}, {30, 0}, {30, 20}, {20, 20}, {20, 5}, {10, 5},
                   {10, 20}, {0, 20}});
  EXPECT_EQ(union_area(u.decompose()), u.area());
}

TEST(Polygon, StaircaseDecomposes) {
  const Polygon s({{0, 0}, {10, 0}, {10, 10}, {20, 10}, {20, 20}, {30, 20},
                   {30, 30}, {0, 30}});
  EXPECT_EQ(union_area(s.decompose()), s.area());
}

TEST(Polygon, DecomposeMergesVerticalSlabs) {
  // A plain rect must decompose to exactly one rect even though the sweep
  // visits two y-slabs if a vertex splits it — from_rect has no splits.
  const auto rects = Polygon::from_rect(Rect(0, 0, 8, 8)).decompose();
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], Rect(0, 0, 8, 8));
}

TEST(Polygon, TranslatePreservesAreaAndShifts) {
  const Polygon p({{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}});
  const Polygon q = p.translated(100, -50);
  EXPECT_EQ(q.area(), p.area());
  EXPECT_EQ(q.bbox(), p.bbox().shifted(100, -50));
}

// Property: random rectilinear "staircase ring" polygons decompose to
// non-overlapping rects of identical total area.
class PolygonDecomposeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolygonDecomposeProperty, AreaPreservedNoOverlap) {
  lhd::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random monotone staircase ring — always simple and Manhattan.
  const int steps = 3 + static_cast<int>(rng.next_below(5));
  const Polygon p(testkit::random_staircase_ring(rng, steps));
  const auto rects = p.decompose();
  ASSERT_FALSE(rects.empty());
  std::int64_t sum = 0;
  for (const auto& r : rects) {
    EXPECT_FALSE(r.empty());
    sum += r.area();
  }
  EXPECT_EQ(sum, p.area());
  EXPECT_EQ(union_area(rects), p.area());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolygonDecomposeProperty,
                         ::testing::Range(1, 21));

// ------------------------------------------------------------ union area --

TEST(UnionArea, EmptyInput) { EXPECT_EQ(union_area({}), 0); }

TEST(UnionArea, SingleRect) {
  EXPECT_EQ(union_area({Rect(0, 0, 10, 10)}), 100);
}

TEST(UnionArea, DisjointRectsSum) {
  EXPECT_EQ(union_area({Rect(0, 0, 5, 5), Rect(10, 10, 15, 15)}), 50);
}

TEST(UnionArea, FullyOverlappingRectsCountOnce) {
  EXPECT_EQ(union_area({Rect(0, 0, 10, 10), Rect(0, 0, 10, 10)}), 100);
}

TEST(UnionArea, PartialOverlap) {
  // Two 10x10 rects overlapping in a 5x10 strip.
  EXPECT_EQ(union_area({Rect(0, 0, 10, 10), Rect(5, 0, 15, 10)}), 150);
}

TEST(UnionArea, IgnoresEmptyRects) {
  EXPECT_EQ(union_area({Rect(0, 0, 10, 10), Rect(3, 3, 3, 9)}), 100);
}

// ------------------------------------------------------------ clip_rects --

TEST(ClipRects, ClipsAndTranslatesToWindowOrigin) {
  const Rect window(100, 100, 200, 200);
  const auto out = clip_rects({Rect(50, 150, 150, 250)}, window);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Rect(0, 50, 50, 100));
}

TEST(ClipRects, DropsDisjointRects) {
  const Rect window(0, 0, 10, 10);
  EXPECT_TRUE(clip_rects({Rect(20, 20, 30, 30)}, window).empty());
}

TEST(ClipRects, KeepsFullyInsideRects) {
  const Rect window(0, 0, 100, 100);
  const auto out = clip_rects({Rect(10, 10, 20, 20)}, window);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Rect(10, 10, 20, 20));
}

// ---------------------------------------------------------------- point --

TEST(Point, ArithmeticAndOrdering) {
  const Point a{1, 2};
  const Point b{3, 4};
  EXPECT_EQ(a + b, (Point{4, 6}));
  EXPECT_EQ(b - a, (Point{2, 2}));
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(Point, HashDistinguishesNeighbours) {
  const std::hash<Point> h;
  EXPECT_NE(h(Point{0, 1}), h(Point{1, 0}));
}


}  // namespace
}  // namespace lhd::geom
