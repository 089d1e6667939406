#pragma once
// Dense raster images and polygon rasterization.
//
// Image<T> is a simple row-major W×H grid. Rasterization converts a clipped
// rectangle set into a float coverage image (exact per-pixel area fractions,
// clamped to 1 where rects overlap) — the mask transmission function the
// lithography model convolves.

#include <cstdint>
#include <vector>

#include "lhd/geom/rect.hpp"
#include "lhd/util/check.hpp"

namespace lhd::geom {

template <typename T>
class Image {
 public:
  Image() = default;
  Image(int width, int height, T fill = T{})
      : w_(width), h_(height), data_(checked_size(width, height), fill) {}

  int width() const { return w_; }
  int height() const { return h_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& at(int x, int y) {
    return data_[static_cast<std::size_t>(y) * w_ + x];
  }
  const T& at(int x, int y) const {
    return data_[static_cast<std::size_t>(y) * w_ + x];
  }

  /// Bounds-checked read returning `outside` beyond the image.
  T get_or(int x, int y, T outside) const {
    if (x < 0 || y < 0 || x >= w_ || y >= h_) return outside;
    return at(x, y);
  }

  T* row(int y) { return data_.data() + static_cast<std::size_t>(y) * w_; }
  const T* row(int y) const {
    return data_.data() + static_cast<std::size_t>(y) * w_;
  }

  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  friend bool operator==(const Image&, const Image&) = default;

 private:
  static std::size_t checked_size(int width, int height) {
    LHD_CHECK(width > 0 && height > 0, "image dims must be positive");
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }

  int w_ = 0, h_ = 0;
  std::vector<T> data_;
};

using FloatImage = Image<float>;
using ByteImage = Image<std::uint8_t>;

/// Rasterize `rects` (clip-local nm coordinates) over `window_nm` × `window_nm`
/// at `pixel_nm` nm per pixel. Pixel (0,0) covers [0,pixel_nm)×[0,pixel_nm).
/// Coverage is the exact overlapped-area fraction, clamped to 1.
FloatImage rasterize(const std::vector<Rect>& rects, Coord window_nm,
                     Coord pixel_nm);

/// Threshold a float image into {0,1}.
ByteImage binarize(const FloatImage& img, float threshold);

/// 4-connected component labeling. Returns the label image (0 = background,
/// components numbered from 1) and writes the component count.
Image<std::int32_t> connected_components(const ByteImage& img,
                                         int* component_count);

/// Morphological dilation with a (2r+1)² square structuring element
/// (chebyshev ball). Outside the image counts as background.
ByteImage dilate(const ByteImage& img, int radius);

}  // namespace lhd::geom
