#include "lhd/nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lhd/nn/gemm.hpp"

namespace lhd::nn {

namespace {

inline std::size_t uz(int v) { return static_cast<std::size_t>(v); }

/// Scratch budget (floats) for one batched im2col chunk: bounds the col
/// matrix at 1 MiB so the chunk's scratch stays cache-resident and the
/// lowering never balloons memory on big batches (measured flat vs larger
/// budgets on the hotspot-CNN shapes).
constexpr std::size_t kConvColBudget = std::size_t{1} << 18;

std::string shape_str(const std::vector<int>& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    os << (i ? "," : "") << shape[i];
  }
  os << ']';
  return os.str();
}

/// backward() reads its caches at every grad_output index, so a gradient
/// whose shape is not the forward output's `want` is rejected up front.
void check_grad_shape(const char* layer, const Tensor& grad_output,
                      const std::vector<int>& want) {
  LHD_CHECK_MSG(grad_output.shape() == want,
                layer << " backward: grad_output shape "
                      << shape_str(grad_output.shape())
                      << " != forward output shape " << shape_str(want));
}

/// The transpose of the row-major (rows × m.size()/rows) matrix `m`.
std::vector<float> transposed(std::span<const float> m, std::size_t rows) {
  const std::size_t cols = m.size() / rows;
  std::vector<float> t(m.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = m[r * cols + c];
  }
  return t;
}

}  // namespace

std::vector<float> to_stream_order(const Param& p, std::span<const float> v) {
  if (p.stream_rows == 0) return {v.begin(), v.end()};
  return transposed(v, v.size() / uz(p.stream_rows));
}

std::vector<float> from_stream_order(const Param& p,
                                     std::span<const float> s) {
  if (p.stream_rows == 0) return {s.begin(), s.end()};
  return transposed(s, uz(p.stream_rows));
}

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int pad)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), pad_(pad) {
  LHD_CHECK(in_c_ > 0 && out_c_ > 0 && k_ > 0 && pad_ >= 0, "bad conv dims");
  const auto wsize = static_cast<std::size_t>(out_c_) * in_c_ * k_ * k_;
  weight_.assign(wsize, 0.0f);
  weight_grad_.assign(wsize, 0.0f);
  bias_.assign(static_cast<std::size_t>(out_c_), 0.0f);
  bias_grad_.assign(static_cast<std::size_t>(out_c_), 0.0f);
}

void Conv2d::init(Rng& rng) {
  const double fan_in = static_cast<double>(in_c_) * k_ * k_;
  const double stddev = std::sqrt(2.0 / fan_in);
  for (auto& w : weight_) {
    w = static_cast<float>(rng.next_gaussian(0.0, stddev));
  }
  std::fill(bias_.begin(), bias_.end(), 0.0f);
}

void Conv2d::im2col(const float* src, int h, int w, float* col,
                    std::size_t pitch) const {
  // col layout: [in_c*k*k] rows of `pitch` floats each (row r at
  // col + r*pitch; this sample's oh*ow entries start at col). Output
  // spatial size equals input size because stride 1 with symmetric
  // padding keeps H, W when pad = (k-1)/2.
  //
  // The same values as a per-element gather, but structured as bulk
  // copies: when ow == w (the same-pad
  // case every hotspot CNN layer hits), destination lines and source
  // lines share the same stride, so ALL in-range y lines of one
  // (c, ky, kx) row form one contiguous copy — the ≤pad elements per
  // line that wrap across a row boundary are re-zeroed afterwards.
  // That turns the 8-float lines of the pooled grids into a single
  // multi-KB memcpy instead of hundreds of tiny ones.
  const int oh = h + 2 * pad_ - k_ + 1;
  const int ow = w + 2 * pad_ - k_ + 1;
  std::size_t row = 0;
  for (int c = 0; c < in_c_; ++c) {
    const float* plane = src + static_cast<std::size_t>(c) * h * w;
    for (int ky = 0; ky < k_; ++ky) {
      // y + ky - pad_ lands in [0, h) for y in [ylo, yhi).
      const int ylo = std::clamp(pad_ - ky, 0, oh);
      const int yhi = std::clamp(h + pad_ - ky, ylo, oh);
      for (int kx = 0; kx < k_; ++kx, ++row) {
        float* dst = col + row * pitch;
        // x + kx - pad_ lands in [0, w) for x in [xlo, xhi).
        const int xlo = std::clamp(pad_ - kx, 0, ow);
        const int xhi = std::clamp(w + pad_ - kx, xlo, ow);
        const int shift = kx - pad_;
        // Whole top/bottom padding lines.
        std::fill_n(dst, uz(ylo) * uz(ow), 0.0f);
        std::fill_n(dst + uz(yhi) * uz(ow), uz(oh - yhi) * uz(ow), 0.0f);
        if (ow == w && yhi > ylo && xhi > xlo) {
          // One flat copy for rows [ylo, yhi): dst[y*ow + x] reads
          // plane[(y+ky-pad)*w + x+shift], and with ow == w both sides
          // advance by w per line. Trim the head/tail so every read
          // stays inside the plane, then re-zero the margin columns
          // (which the flat copy filled with wrapped neighbours). The
          // trim is |shift| only while the x range is non-empty: a tap
          // that misses every column (|shift| ≥ w, a kernel wider than
          // the input) takes the per-line path, which reads nothing.
          const std::ptrdiff_t base =
              static_cast<std::ptrdiff_t>(ylo + ky - pad_) * w + shift;
          const std::size_t lead = uz(shift < 0 ? xlo : 0);
          const std::size_t tail = uz(shift > 0 ? ow - xhi : 0);
          const std::size_t block = uz(yhi - ylo) * uz(ow);
          std::copy_n(plane + (base + static_cast<std::ptrdiff_t>(lead)),
                      block - lead - tail, dst + uz(ylo) * uz(ow) + lead);
          if (xlo > 0 || xhi < ow) {
            for (int y = ylo; y < yhi; ++y) {
              float* line = dst + static_cast<std::size_t>(y) * uz(ow);
              for (int x = 0; x < xlo; ++x) line[x] = 0.0f;
              for (int x = xhi; x < ow; ++x) line[x] = 0.0f;
            }
          }
        } else {
          // General (non-same-pad) shape: per-line prefix zeros, one
          // run copied from the source row, suffix zeros.
          for (int y = ylo; y < yhi; ++y) {
            float* line = dst + static_cast<std::size_t>(y) * uz(ow);
            const float* srow =
                plane + static_cast<std::size_t>(y + ky - pad_) * uz(w);
            for (int x = 0; x < xlo; ++x) line[x] = 0.0f;
            for (int x = xlo; x < xhi; ++x) line[x] = srow[x + shift];
            for (int x = xhi; x < ow; ++x) line[x] = 0.0f;
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* col, int h, int w, float* dst) const {
  const int oh = h + 2 * pad_ - k_ + 1;
  const int ow = w + 2 * pad_ - k_ + 1;
  // The inverse of im2col's row runs: each (c, ky, kx) row adds its
  // in-range [ylo, yhi) × [xlo, xhi) window onto the plane, one
  // branch-free run per line. Every destination element still receives
  // its adds in (c, ky, kx) order, so the sums match a per-element
  // scatter bit for bit.
  std::size_t row = 0;
  for (int c = 0; c < in_c_; ++c) {
    float* plane = dst + static_cast<std::size_t>(c) * h * w;
    for (int ky = 0; ky < k_; ++ky) {
      // y + ky - pad_ lands in [0, h) for y in [ylo, yhi).
      const int ylo = std::clamp(pad_ - ky, 0, oh);
      const int yhi = std::clamp(h + pad_ - ky, ylo, oh);
      for (int kx = 0; kx < k_; ++kx, ++row) {
        // x + kx - pad_ lands in [0, w) for x in [xlo, xhi).
        const int xlo = std::clamp(pad_ - kx, 0, ow);
        const int xhi = std::clamp(w + pad_ - kx, xlo, ow);
        if (xhi == xlo) continue;
        const std::size_t run = uz(xhi - xlo);
        const float* src = col + row * uz(oh) * uz(ow) + uz(xlo);
        for (int y = ylo; y < yhi; ++y) {
          // Formed at x = xlo, so the pointer never leaves the plane.
          float* line = plane + uz(y + ky - pad_) * uz(w) +
                        uz(xlo + kx - pad_);
          const float* sline = src + uz(y) * uz(ow);
          for (std::size_t x = 0; x < run; ++x) line[x] += sline[x];
        }
      }
    }
  }
}

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  input_ = input;
  return apply(input);
}

Tensor Conv2d::infer(const Tensor& input) const { return apply(input); }

Tensor Conv2d::apply(const Tensor& input) const {
  LHD_CHECK(input.rank() == 4, "conv expects NCHW");
  LHD_CHECK_MSG(input.dim(1) == in_c_, "conv channel mismatch: got "
                                           << input.dim(1) << ", want "
                                           << in_c_);
  const int oh = input.dim(2) + 2 * pad_ - k_ + 1;
  const int ow = input.dim(3) + 2 * pad_ - k_ + 1;
  LHD_CHECK(oh > 0 && ow > 0, "conv output collapsed to zero");
  const int n = input.dim(0);
  const int h = input.dim(2);
  const int w = input.dim(3);
  const int krows = in_c_ * k_ * k_;
  const std::size_t spatial = uz(oh) * uz(ow);
  const std::size_t sample = uz(in_c_) * uz(h) * uz(w);
  Tensor out({n, out_c_, oh, ow});

  // Batched lowering: one shared col matrix [krows × chunk*spatial] and
  // ONE blocked GEMM per chunk of samples (the whole batch when it fits
  // kConvColBudget), instead of an im2col+matmul per sample. The GEMM
  // lands in [out_c][sample][spatial] scratch, then contiguous planes are
  // scattered back to NCHW.
  const std::size_t per_sample = uz(krows) * spatial;
  const int chunk = static_cast<int>(std::clamp<std::size_t>(
      kConvColBudget / std::max<std::size_t>(per_sample, 1), 1, uz(n)));

  thread_local AlignedVec col;
  thread_local AlignedVec gemm_out;
  for (int s0 = 0; s0 < n; s0 += chunk) {
    const int cn = std::min(chunk, n - s0);
    const std::size_t cols = uz(cn) * spatial;
    col.resize(uz(krows) * cols);
    for (int s = 0; s < cn; ++s) {
      im2col(input.data() + uz(s0 + s) * sample, h, w,
             col.data() + uz(s) * spatial, cols);
    }
    // A single-sample chunk's [out_c][spatial] GEMM result IS that
    // sample's CHW plane, so the GEMM writes the output tensor directly;
    // multi-sample chunks land in [out_c][s][spatial] scratch and scatter
    // planes back to NCHW.
    float* gdst;
    if (cn == 1) {
      gdst = out.data() + uz(s0) * uz(out_c_) * spatial;
    } else {
      gemm_out.resize(uz(out_c_) * cols);
      gdst = gemm_out.data();
    }
    // Seed every output row with its bias; gemm() accumulates on top.
    for (int oc = 0; oc < out_c_; ++oc) {
      std::fill_n(gdst + uz(oc) * cols, cols, bias_[uz(oc)]);
    }
    gemm(out_c_, static_cast<int>(cols), krows, weight_.data(), krows,
         col.data(), static_cast<int>(cols), /*trans_b=*/false, gdst,
         static_cast<int>(cols));
    if (cn > 1) {
      for (int s = 0; s < cn; ++s) {
        float* dst = out.data() + uz(s0 + s) * uz(out_c_) * spatial;
        for (int oc = 0; oc < out_c_; ++oc) {
          std::copy_n(gemm_out.data() + uz(oc) * cols + uz(s) * spatial,
                      spatial, dst + uz(oc) * spatial);
        }
      }
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output, bool input_grad) {
  const int n = input_.dim(0);
  const int h = input_.dim(2);
  const int w = input_.dim(3);
  const int oh = h + 2 * pad_ - k_ + 1;
  const int ow = w + 2 * pad_ - k_ + 1;
  check_grad_shape("conv2d", grad_output, {n, out_c_, oh, ow});
  const int krows = in_c_ * k_ * k_;
  const int spatial = oh * ow;
  const std::size_t sample = uz(in_c_) * uz(h) * uz(w);

  // Wᵀ [krows × out_c], so dcol = Wᵀ · gout is a row-major GEMM. None of
  // the input-gradient work runs when nobody reads it.
  std::vector<float> weight_t;
  Tensor grad_in;
  std::vector<float> col(uz(krows) * uz(spatial));
  std::vector<float> col_grad;
  if (input_grad) {
    weight_t = transposed(weight_, uz(out_c_));
    grad_in = Tensor(input_.shape());
    col_grad.resize(col.size());
  }
  for (int s = 0; s < n; ++s) {
    const float* gout = grad_output.data() + uz(s) * uz(out_c_) * uz(spatial);
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* grow = gout + uz(oc) * uz(spatial);
      double bsum = 0.0;
      for (int i = 0; i < spatial; ++i) bsum += grow[i];
      bias_grad_[uz(oc)] += static_cast<float>(bsum);
    }
    // dW += gout · colᵀ over the forward's im2col lowering of this sample.
    im2col(input_.data() + uz(s) * sample, h, w, col.data(), uz(spatial));
    gemm(out_c_, krows, spatial, gout, spatial, col.data(), spatial,
         /*trans_b=*/true, weight_grad_.data(), krows);
    if (!input_grad) continue;
    // dcol = Wᵀ · gout, scattered back onto the input planes by col2im.
    std::fill(col_grad.begin(), col_grad.end(), 0.0f);
    gemm(krows, spatial, out_c_, weight_t.data(), out_c_, gout, spatial,
         /*trans_b=*/false, col_grad.data(), spatial);
    col2im(col_grad.data(), h, w, grad_in.data() + uz(s) * sample);
  }
  return grad_in;
}

std::vector<Param> Conv2d::params() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// ------------------------------------------------------------------ Relu --

Tensor Relu::forward(const Tensor& input, bool /*training*/) {
  Tensor out = infer(input);
  mask_.resize(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) mask_[i] = out[i] > 0;
  return out;
}

Tensor Relu::infer(const Tensor& input) const {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!(out[i] > 0)) out[i] = 0.0f;
  }
  return out;
}

Tensor Relu::backward(const Tensor& grad_output, bool /*input_grad*/) {
  LHD_CHECK(grad_output.size() == mask_.size(), "relu backward shape mismatch");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (!mask_[i]) grad[i] = 0.0f;
  }
  return grad;
}

// -------------------------------------------------------------- MaxPool2 --

Tensor MaxPool2::forward(const Tensor& input, bool /*training*/) {
  in_shape_ = input.shape();
  return apply(input, &argmax_);
}

Tensor MaxPool2::infer(const Tensor& input) const {
  return apply(input, nullptr);
}

Tensor MaxPool2::apply(const Tensor& input, std::vector<int>* argmax) const {
  LHD_CHECK(input.rank() == 4, "pool expects NCHW");
  const int n = input.dim(0), c = input.dim(1);
  const int h = input.dim(2), w = input.dim(3);
  LHD_CHECK(h % 2 == 0 && w % 2 == 0, "pool input dims must be even");
  const int oh = h / 2, ow = w / 2;
  Tensor out({n, c, oh, ow});
  if (argmax) argmax->assign(out.size(), 0);

  std::size_t oi = 0;
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          input.data() + (static_cast<std::size_t>(s) * c + ch) * h * w;
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x, ++oi) {
          int best_idx = (2 * y) * w + 2 * x;
          float best = plane[best_idx];
          const int candidates[3] = {(2 * y) * w + 2 * x + 1,
                                     (2 * y + 1) * w + 2 * x,
                                     (2 * y + 1) * w + 2 * x + 1};
          for (const int idx : candidates) {
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
          out[oi] = best;
          if (argmax) {
            (*argmax)[oi] = static_cast<int>(
                                (static_cast<std::size_t>(s) * c + ch) * h * w) +
                            best_idx;
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2::backward(const Tensor& grad_output, bool /*input_grad*/) {
  std::vector<int> out_shape = in_shape_;
  if (out_shape.size() == 4) {
    out_shape[2] /= 2;
    out_shape[3] /= 2;
  }
  check_grad_shape("maxpool2", grad_output, out_shape);
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_in[static_cast<std::size_t>(argmax_[i])] += grad_output[i];
  }
  return grad_in;
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(int in_features, int out_features)
    : in_f_(in_features), out_f_(out_features) {
  LHD_CHECK(in_f_ > 0 && out_f_ > 0, "bad linear dims");
  weight_.assign(static_cast<std::size_t>(out_f_) * in_f_, 0.0f);
  weight_grad_.assign(weight_.size(), 0.0f);
  bias_.assign(static_cast<std::size_t>(out_f_), 0.0f);
  bias_grad_.assign(bias_.size(), 0.0f);
}

void Linear::init(Rng& rng) {
  // Draws in stream order, [o][i], so a seed gives the same weights
  // whatever the storage layout.
  const double stddev = std::sqrt(2.0 / in_f_);
  for (int o = 0; o < out_f_; ++o) {
    for (int i = 0; i < in_f_; ++i) {
      weight_[uz(i) * uz(out_f_) + uz(o)] =
          static_cast<float>(rng.next_gaussian(0.0, stddev));
    }
  }
  std::fill(bias_.begin(), bias_.end(), 0.0f);
}

Tensor Linear::forward(const Tensor& input, bool /*training*/) {
  Tensor out = apply(input);  // shape-checks before the caches are written
  in_shape_ = input.shape();
  input_ = input;
  input_.reshape({input.dim(0), in_f_});
  return out;
}

Tensor Linear::infer(const Tensor& input) const { return apply(input); }

Tensor Linear::apply(const Tensor& input) const {
  const int n = input.dim(0);
  LHD_CHECK_MSG(input.size() == static_cast<std::size_t>(n) * in_f_,
                "linear expects " << in_f_ << " features, got "
                                  << input.size() / static_cast<std::size_t>(n));
  // out[n × out_f] = x[n × in_f] · W[in_f × out_f] + b. W is already the
  // GEMM's row-major B operand, so up to kMC rows (batch 1 included) the
  // microkernel reads it in place, unpacked.
  Tensor out({n, out_f_});
  for (int s = 0; s < n; ++s) {
    std::copy(bias_.begin(), bias_.end(),
              out.data() + static_cast<std::size_t>(s) * uz(out_f_));
  }
  gemm(n, out_f_, in_f_, input.data(), in_f_, weight_.data(), out_f_,
       /*trans_b=*/false, out.data(), out_f_);
  return out;
}

Tensor Linear::backward(const Tensor& grad_output, bool input_grad) {
  const int n = input_.dim(0);
  check_grad_shape("linear", grad_output, {n, out_f_});
  const float* g = grad_output.data();
  for (int s = 0; s < n; ++s) {
    for (int j = 0; j < out_f_; ++j) {
      bias_grad_[uz(j)] += g[uz(s) * uz(out_f_) + uz(j)];
    }
  }
  // xᵀ [in_f × n], so dW [in_f × out_f] += xᵀ · g is a row-major GEMM.
  const std::vector<float> x_t =
      transposed({input_.data(), input_.size()}, uz(n));
  gemm(in_f_, out_f_, n, x_t.data(), n, g, out_f_, /*trans_b=*/false,
       weight_grad_.data(), out_f_);
  if (!input_grad) return {};
  // dX = g · Wᵀ.
  Tensor grad_in({n, in_f_});
  gemm(n, in_f_, out_f_, g, out_f_, weight_.data(), out_f_, /*trans_b=*/true,
       grad_in.data(), in_f_);
  grad_in.reshape(in_shape_);
  return grad_in;
}

std::vector<Param> Linear::params() {
  return {{&weight_, &weight_grad_, out_f_}, {&bias_, &bias_grad_}};
}

// --------------------------------------------------------------- Dropout --

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  LHD_CHECK(p >= 0 && p < 1, "dropout p must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  in_shape_ = input.shape();
  if (!training || p_ == 0.0) {
    mask_.assign(input.size(), 1);
    return input;
  }
  Tensor out = input;
  mask_.assign(input.size(), 0);
  const auto scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng_.next_double() >= p_) {
      mask_[i] = 1;
      out[i] *= scale;
    } else {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor Dropout::infer(const Tensor& input) const { return input; }

Tensor Dropout::backward(const Tensor& grad_output, bool /*input_grad*/) {
  check_grad_shape("dropout", grad_output, in_shape_);
  Tensor grad = grad_output;
  const auto scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] = mask_[i] ? grad[i] * scale : 0.0f;
  }
  return grad;
}

}  // namespace lhd::nn
