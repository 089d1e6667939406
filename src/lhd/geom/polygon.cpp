#include "lhd/geom/polygon.hpp"

#include <algorithm>
#include <map>

#include "lhd/util/check.hpp"

namespace lhd::geom {

Polygon::Polygon(std::vector<Point> ring) : ring_(std::move(ring)) {
  if (ring_.size() >= 2 && ring_.front() == ring_.back()) ring_.pop_back();
  LHD_CHECK(ring_.size() >= 4, "Manhattan polygon needs >= 4 vertices");
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % n];
    const bool horizontal = a.y == b.y && a.x != b.x;
    const bool vertical = a.x == b.x && a.y != b.y;
    LHD_CHECK_MSG(horizontal || vertical,
                  "edge " << i << " is not axis-aligned or has zero length");
    // Alternation: compare with the next edge's orientation.
    const Point& c = ring_[(i + 2) % n];
    const bool next_horizontal = b.y == c.y && b.x != c.x;
    LHD_CHECK_MSG(horizontal != next_horizontal,
                  "edges " << i << "," << i + 1 << " do not alternate H/V");
  }
}

Polygon Polygon::from_rect(const Rect& r) {
  LHD_CHECK(!r.empty(), "from_rect requires non-empty rect");
  return Polygon({{r.xlo, r.ylo}, {r.xhi, r.ylo}, {r.xhi, r.yhi},
                  {r.xlo, r.yhi}});
}

Rect Polygon::bbox() const {
  Rect b(ring_[0].x, ring_[0].y, ring_[0].x, ring_[0].y);
  for (const auto& p : ring_) {
    b.xlo = std::min(b.xlo, p.x);
    b.ylo = std::min(b.ylo, p.y);
    b.xhi = std::max(b.xhi, p.x);
    b.yhi = std::max(b.yhi, p.y);
  }
  return b;
}

std::int64_t Polygon::signed_area2() const {
  std::int64_t sum = 0;
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % n];
    sum += static_cast<std::int64_t>(a.x) * b.y -
           static_cast<std::int64_t>(b.x) * a.y;
  }
  return sum;
}

std::int64_t Polygon::area() const {
  const std::int64_t a2 = signed_area2();
  return (a2 < 0 ? -a2 : a2) / 2;
}

bool Polygon::contains(const Point& p) const {
  // Cast a ray towards +x, counting crossings of vertical edges whose y-span
  // covers p.y under the half-open convention [ymin, ymax).
  bool inside = false;
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % n];
    if (a.x != b.x) continue;  // horizontal edge, ignore
    const Coord ymin = std::min(a.y, b.y);
    const Coord ymax = std::max(a.y, b.y);
    if (p.y >= ymin && p.y < ymax && p.x < a.x) inside = !inside;
  }
  return inside;
}

std::vector<Rect> Polygon::decompose() const {
  // Vertical edges, keyed by their y-span; horizontal slab sweep.
  struct VEdge {
    Coord x, ylo, yhi;
  };
  std::vector<VEdge> edges;
  const std::size_t n = ring_.size();
  std::vector<Coord> ys;
  ys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % n];
    if (a.x == b.x) {
      edges.push_back({a.x, std::min(a.y, b.y), std::max(a.y, b.y)});
    }
    ys.push_back(a.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  std::vector<Rect> out;
  std::vector<Coord> xs;
  for (std::size_t s = 0; s + 1 < ys.size(); ++s) {
    const Coord ya = ys[s];
    const Coord yb = ys[s + 1];
    xs.clear();
    for (const auto& e : edges) {
      if (e.ylo <= ya && e.yhi >= yb) xs.push_back(e.x);
    }
    std::sort(xs.begin(), xs.end());
    // Even-odd fill: pair up crossings.
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      if (xs[i] != xs[i + 1]) out.emplace_back(xs[i], ya, xs[i + 1], yb);
    }
  }

  // Merge vertically adjacent rects with identical x-span to reduce count.
  std::sort(out.begin(), out.end(), [](const Rect& a, const Rect& b) {
    if (a.xlo != b.xlo) return a.xlo < b.xlo;
    if (a.xhi != b.xhi) return a.xhi < b.xhi;
    return a.ylo < b.ylo;
  });
  std::vector<Rect> merged;
  for (const auto& r : out) {
    if (!merged.empty() && merged.back().xlo == r.xlo &&
        merged.back().xhi == r.xhi && merged.back().yhi == r.ylo) {
      merged.back().yhi = r.yhi;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

Polygon Polygon::translated(Coord dx, Coord dy) const {
  std::vector<Point> ring = ring_;
  for (auto& p : ring) {
    p.x += dx;
    p.y += dy;
  }
  Polygon out;
  out.ring_ = std::move(ring);
  return out;
}

std::int64_t union_area(std::vector<Rect> rects) {
  rects.erase(std::remove_if(rects.begin(), rects.end(),
                             [](const Rect& r) { return r.empty(); }),
              rects.end());
  if (rects.empty()) return 0;
  // Coordinate-compressed vertical scanline over x; interval coverage in y.
  std::vector<Coord> xs;
  xs.reserve(rects.size() * 2);
  for (const auto& r : rects) {
    xs.push_back(r.xlo);
    xs.push_back(r.xhi);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  std::int64_t total = 0;
  std::vector<std::pair<Coord, Coord>> spans;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    const Coord xa = xs[i];
    const Coord xb = xs[i + 1];
    spans.clear();
    for (const auto& r : rects) {
      if (r.xlo <= xa && r.xhi >= xb) spans.emplace_back(r.ylo, r.yhi);
    }
    if (spans.empty()) continue;
    std::sort(spans.begin(), spans.end());
    std::int64_t covered = 0;
    Coord cur_lo = spans[0].first, cur_hi = spans[0].second;
    for (std::size_t k = 1; k < spans.size(); ++k) {
      if (spans[k].first > cur_hi) {
        covered += cur_hi - cur_lo;
        cur_lo = spans[k].first;
        cur_hi = spans[k].second;
      } else {
        cur_hi = std::max(cur_hi, spans[k].second);
      }
    }
    covered += cur_hi - cur_lo;
    total += covered * static_cast<std::int64_t>(xb - xa);
  }
  return total;
}

std::vector<Rect> clip_rects(const std::vector<Rect>& rects,
                             const Rect& window) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const auto& r : rects) {
    const Rect c = r.intersect(window);
    if (!c.empty()) out.push_back(c.shifted(-window.xlo, -window.ylo));
  }
  return out;
}

}  // namespace lhd::geom
