#pragma once
// Axis-aligned rectangle with half-open extent: [xlo, xhi) × [ylo, yhi).
// Half-open semantics make area/intersection/rasterization exact and make
// abutting rectangles tile without overlap.

#include <algorithm>
#include <cstdint>

#include "lhd/geom/point.hpp"

namespace lhd::geom {

struct Rect {
  Coord xlo = 0, ylo = 0, xhi = 0, yhi = 0;

  Rect() = default;
  Rect(Coord xl, Coord yl, Coord xh, Coord yh)
      : xlo(xl), ylo(yl), xhi(xh), yhi(yh) {}

  friend bool operator==(const Rect&, const Rect&) = default;

  Coord width() const { return xhi - xlo; }
  Coord height() const { return yhi - ylo; }
  bool empty() const { return xhi <= xlo || yhi <= ylo; }
  std::int64_t area() const {
    return empty() ? 0
                   : static_cast<std::int64_t>(width()) *
                         static_cast<std::int64_t>(height());
  }

  bool contains(const Point& p) const {
    return p.x >= xlo && p.x < xhi && p.y >= ylo && p.y < yhi;
  }
  bool contains(const Rect& r) const {
    return r.xlo >= xlo && r.xhi <= xhi && r.ylo >= ylo && r.yhi <= yhi;
  }
  bool overlaps(const Rect& r) const {
    return xlo < r.xhi && r.xlo < xhi && ylo < r.yhi && r.ylo < yhi;
  }

  /// Intersection; empty() if disjoint.
  Rect intersect(const Rect& r) const {
    return Rect(std::max(xlo, r.xlo), std::max(ylo, r.ylo),
                std::min(xhi, r.xhi), std::min(yhi, r.yhi));
  }

  /// Smallest rect containing both (treats empty operands as identity).
  Rect unite(const Rect& r) const {
    if (empty()) return r;
    if (r.empty()) return *this;
    return Rect(std::min(xlo, r.xlo), std::min(ylo, r.ylo),
                std::max(xhi, r.xhi), std::max(yhi, r.yhi));
  }

  Rect shifted(Coord dx, Coord dy) const {
    return Rect(xlo + dx, ylo + dy, xhi + dx, yhi + dy);
  }
};

}  // namespace lhd::geom
