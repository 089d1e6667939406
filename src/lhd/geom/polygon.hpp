#pragma once
// Manhattan (rectilinear) polygons and their decomposition into rectangles.
//
// Polygons are stored as a closed ring of vertices (last edge implicit,
// back() -> front()); consecutive edges must be axis-aligned and alternate
// horizontal/vertical. All layout processing downstream of GDS parsing works
// on rectangle sets produced by decompose(), which is exact for simple
// rectilinear polygons (even-odd fill).

#include <vector>

#include "lhd/geom/rect.hpp"

namespace lhd::geom {

class Polygon {
 public:
  Polygon() = default;

  /// Builds from a vertex ring. If the ring repeats the first vertex at the
  /// end (GDSII convention) the duplicate is dropped. Throws lhd::Error if
  /// the result is not a valid Manhattan ring (>= 4 vertices, axis-aligned
  /// alternating edges, no zero-length edges).
  explicit Polygon(std::vector<Point> ring);

  /// Axis-aligned rectangle as a 4-vertex polygon.
  static Polygon from_rect(const Rect& r);

  const std::vector<Point>& ring() const { return ring_; }
  std::size_t size() const { return ring_.size(); }

  Rect bbox() const;

  /// Signed area * 2 (positive for counter-clockwise rings).
  std::int64_t signed_area2() const;

  /// |area|.
  std::int64_t area() const;

  /// Even-odd point containment test (points on the boundary follow the
  /// half-open convention of Rect: lower/left edges are inside).
  bool contains(const Point& p) const;

  /// Exact decomposition into non-overlapping rectangles (horizontal slabs
  /// between consecutive distinct y coordinates, even-odd fill).
  std::vector<Rect> decompose() const;

  Polygon translated(Coord dx, Coord dy) const;

 private:
  std::vector<Point> ring_;
};

/// Total area of a rect set that may contain overlaps, computed exactly by
/// coordinate-compressed scanline. Used by tests and density features.
std::int64_t union_area(std::vector<Rect> rects);

/// Clip every rect against `window`, drop empties, and translate so the
/// window's lower-left corner becomes the origin.
std::vector<Rect> clip_rects(const std::vector<Rect>& rects,
                             const Rect& window);

}  // namespace lhd::geom
