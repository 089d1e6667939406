#include "lhd/geom/raster.hpp"

#include <algorithm>

namespace lhd::geom {

FloatImage rasterize(const std::vector<Rect>& rects, Coord window_nm,
                     Coord pixel_nm) {
  LHD_CHECK(window_nm > 0 && pixel_nm > 0, "bad raster dims");
  LHD_CHECK(window_nm % pixel_nm == 0, "pixel size must divide window");
  const int n = static_cast<int>(window_nm / pixel_nm);
  FloatImage img(n, n, 0.0f);
  const Rect window(0, 0, window_nm, window_nm);
  const double inv_area =
      1.0 / (static_cast<double>(pixel_nm) * static_cast<double>(pixel_nm));

  for (const Rect& raw : rects) {
    const Rect r = raw.intersect(window);
    if (r.empty()) continue;
    const int px_lo = static_cast<int>(r.xlo / pixel_nm);
    const int py_lo = static_cast<int>(r.ylo / pixel_nm);
    const int px_hi = static_cast<int>((r.xhi - 1) / pixel_nm);
    const int py_hi = static_cast<int>((r.yhi - 1) / pixel_nm);
    for (int py = py_lo; py <= py_hi; ++py) {
      const Coord cell_ylo = static_cast<Coord>(py) * pixel_nm;
      const Coord ylo = std::max(r.ylo, cell_ylo);
      const Coord yhi = std::min(r.yhi, cell_ylo + pixel_nm);
      float* row = img.row(py);
      for (int px = px_lo; px <= px_hi; ++px) {
        const Coord cell_xlo = static_cast<Coord>(px) * pixel_nm;
        const Coord xlo = std::max(r.xlo, cell_xlo);
        const Coord xhi = std::min(r.xhi, cell_xlo + pixel_nm);
        const double frac = static_cast<double>(xhi - xlo) *
                            static_cast<double>(yhi - ylo) * inv_area;
        row[px] = std::min(1.0f, row[px] + static_cast<float>(frac));
      }
    }
  }
  return img;
}

ByteImage binarize(const FloatImage& img, float threshold) {
  ByteImage out(img.width(), img.height(), 0);
  const auto& src = img.data();
  auto& dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i] >= threshold;
  return out;
}

Image<std::int32_t> connected_components(const ByteImage& img,
                                         int* component_count) {
  const int w = img.width();
  const int h = img.height();
  Image<std::int32_t> labels(w, h, 0);
  int next_label = 0;
  std::vector<std::pair<int, int>> stack;

  for (int y0 = 0; y0 < h; ++y0) {
    for (int x0 = 0; x0 < w; ++x0) {
      if (!img.at(x0, y0) || labels.at(x0, y0) != 0) continue;
      ++next_label;
      stack.clear();
      stack.emplace_back(x0, y0);
      labels.at(x0, y0) = next_label;
      while (!stack.empty()) {
        const auto [x, y] = stack.back();
        stack.pop_back();
        constexpr int dx[4] = {1, -1, 0, 0};
        constexpr int dy[4] = {0, 0, 1, -1};
        for (int k = 0; k < 4; ++k) {
          const int nx = x + dx[k];
          const int ny = y + dy[k];
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          if (!img.at(nx, ny) || labels.at(nx, ny) != 0) continue;
          labels.at(nx, ny) = next_label;
          stack.emplace_back(nx, ny);
        }
      }
    }
  }
  if (component_count != nullptr) *component_count = next_label;
  return labels;
}

ByteImage dilate(const ByteImage& img, int radius) {
  LHD_CHECK(radius >= 0, "negative morphology radius");
  if (radius == 0) return img;
  // Separable chebyshev-ball dilation: a horizontal then a vertical 1-D max
  // filter of width 2r+1, skipping taps outside the image (background).
  const int w = img.width();
  const int h = img.height();
  ByteImage tmp(w, h, 0);
  ByteImage out(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::uint8_t acc = 0;
      for (int xx = std::max(0, x - radius); xx <= std::min(w - 1, x + radius);
           ++xx) {
        acc = std::max<std::uint8_t>(acc, img.at(xx, y) ? 1 : 0);
      }
      tmp.at(x, y) = acc;
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::uint8_t acc = 0;
      for (int yy = std::max(0, y - radius); yy <= std::min(h - 1, y + radius);
           ++yy) {
        acc = std::max(acc, tmp.at(x, yy));
      }
      out.at(x, y) = acc;
    }
  }
  return out;
}

}  // namespace lhd::geom
