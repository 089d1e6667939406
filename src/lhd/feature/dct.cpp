#include "lhd/feature/dct.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "lhd/util/check.hpp"
#include "lhd/util/thread_annotations.hpp"

namespace lhd::feature {

namespace {

/// Lazily-built per-size lookup table shared by every extraction thread.
/// The builder runs under the cache mutex, so each size is computed once;
/// returned references stay valid for the process lifetime (std::map
/// nodes are stable), so callers hold them lock-free.
template <typename V>
class SizeCache {
 public:
  template <typename Build>
  const V& get(int n, Build build) LHD_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    auto it = entries_.find(n);
    if (it != entries_.end()) return it->second;
    return entries_.emplace(n, build(n)).first->second;
  }

 private:
  Mutex mu_;
  std::map<int, V> entries_ LHD_GUARDED_BY(mu_);
};

/// Orthonormal DCT-II basis matrix C (n×n): C[k][i] = s(k) cos(pi(2i+1)k/2n).
const std::vector<float>& dct_matrix(int n) {
  static SizeCache<std::vector<float>> cache;
  return cache.get(n, [](int size) {
    std::vector<float> c(static_cast<std::size_t>(size) * size);
    const double pi = 3.14159265358979323846;
    for (int k = 0; k < size; ++k) {
      const double s = (k == 0) ? std::sqrt(1.0 / size) : std::sqrt(2.0 / size);
      for (int i = 0; i < size; ++i) {
        c[static_cast<std::size_t>(k) * size + i] = static_cast<float>(
            s * std::cos(pi * (2 * i + 1) * k / (2.0 * size)));
      }
    }
    return c;
  });
}

// out = A * B (n×n, row-major).
void matmul(const float* a, const float* b, float* out, int n) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < n; ++k) {
        acc += a[i * n + k] * b[k * n + j];
      }
      out[i * n + j] = acc;
    }
  }
}

// out = A * B^T.
void matmul_bt(const float* a, const float* b, float* out, int n) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < n; ++k) {
        acc += a[i * n + k] * b[j * n + k];
      }
      out[i * n + j] = acc;
    }
  }
}

// out = A^T * B.
void matmul_at(const float* a, const float* b, float* out, int n) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < n; ++k) {
        acc += a[k * n + i] * b[k * n + j];
      }
      out[i * n + j] = acc;
    }
  }
}

}  // namespace

void dct2d(const float* in, float* out, int n) {
  const auto& c = dct_matrix(n);
  std::vector<float> tmp(static_cast<std::size_t>(n) * n);
  matmul(c.data(), in, tmp.data(), n);        // C * X
  matmul_bt(tmp.data(), c.data(), out, n);    // (C X) C^T
}

void idct2d(const float* in, float* out, int n) {
  const auto& c = dct_matrix(n);
  std::vector<float> tmp(static_cast<std::size_t>(n) * n);
  matmul_at(c.data(), in, tmp.data(), n);     // C^T * Y
  matmul(tmp.data(), c.data(), out, n);       // (C^T Y) C
}

const std::vector<int>& zigzag_order(int n) {
  static SizeCache<std::vector<int>> cache;
  return cache.get(n, [](int size) {
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(size) * size);
    // Walk anti-diagonals d = row+col, alternating direction.
    for (int d = 0; d < 2 * size - 1; ++d) {
      if (d % 2 == 0) {
        // up-right: start at (min(d, size-1), d - min(d, size-1))
        int r = std::min(d, size - 1);
        int c = d - r;
        while (r >= 0 && c < size) order.push_back(r-- * size + c++);
      } else {
        int c = std::min(d, size - 1);
        int r = d - c;
        while (c >= 0 && r < size) order.push_back(r++ * size + c--);
      }
    }
    return order;
  });
}

DctTensor dct_tensor_from_raster(const geom::FloatImage& raster,
                                 const DctConfig& config) {
  const int b = config.block;
  LHD_CHECK(b > 0 && config.coefficients > 0, "bad DCT config");
  LHD_CHECK(config.coefficients <= b * b, "more coefficients than block");
  LHD_CHECK_MSG(raster.width() % b == 0 && raster.height() % b == 0,
                "raster not divisible by block " << b);
  const int w = raster.width();
  const int gw = w / b;
  const int gh = raster.height() / b;
  const auto zb = static_cast<std::size_t>(b);
  const auto zw = static_cast<std::size_t>(w);
  const float* c = dct_matrix(b).data();
  const auto& zz = zigzag_order(b);

  DctTensor t;
  t.channels = config.coefficients;
  t.height = gh;
  t.width = gw;
  t.values.assign(
      static_cast<std::size_t>(t.channels) * gh * gw, 0.0f);

  // Only the basis rows u < rows reach a kept zig-zag coefficient (u, v).
  int rows = 0;
  for (int k = 0; k < t.channels; ++k) {
    rows = std::max(rows, zz[static_cast<std::size_t>(k)] / b + 1);
  }

  // Row panel of one band of blocks: tmp[u][x] = Σ_i C[u][i]·X[i][x] over
  // the full raster width — dct2d's C·X for every block of the band at
  // once, with each element summed in the same order from 0.0f. The panel
  // is then regrouped as panel[u][j][gx] = tmp[u][gx·b + j], so the second
  // product runs across blocks too.
  const std::size_t panel_size = static_cast<std::size_t>(rows) * zw;
  std::vector<float> tmp(panel_size), panel(panel_size);
  for (int gy = 0; gy < gh; ++gy) {
    std::fill(tmp.begin(), tmp.end(), 0.0f);
    for (int u = 0; u < rows; ++u) {
      float* tu = tmp.data() + static_cast<std::size_t>(u) * zw;
      for (int i = 0; i < b; ++i) {
        const float cui = c[static_cast<std::size_t>(u) * zb + i];
        const float* x = raster.row(gy * b + i);
        for (int px = 0; px < w; ++px) tu[px] += cui * x[px];
      }
      float* pu = panel.data() + static_cast<std::size_t>(u) * zw;
      for (int gx = 0; gx < gw; ++gx) {
        for (int j = 0; j < b; ++j) {
          pu[static_cast<std::size_t>(j) * gw + gx] =
              tu[static_cast<std::size_t>(gx) * zb + j];
        }
      }
    }
    // Each kept coefficient (u, v) of every block gx of the band: the
    // (C X)·C^T dot product Σ_j tmp[u][gx·b + j]·C[v][j], as in dct2d,
    // accumulated in j order into the zero-filled output.
    for (int k = 0; k < t.channels; ++k) {
      const int uv = zz[static_cast<std::size_t>(k)];
      const float* pu = panel.data() + static_cast<std::size_t>(uv / b) * zw;
      const float* cv = c + static_cast<std::size_t>(uv % b) * zb;
      float* out = t.values.data() +
                   (static_cast<std::size_t>(k) * gh + gy) * gw;
      for (int j = 0; j < b; ++j) {
        const float cvj = cv[j];
        const float* pj = pu + static_cast<std::size_t>(j) * gw;
        for (int gx = 0; gx < gw; ++gx) out[gx] += pj[gx] * cvj;
      }
    }
  }
  return t;
}

DctTensor dct_tensor(const data::Clip& clip, const DctConfig& config) {
  return dct_tensor_from_raster(clip.raster(config.pixel_nm), config);
}

}  // namespace lhd::feature
