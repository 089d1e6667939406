#pragma once
// Neural-network layers with explicit forward/backward passes. Batched
// NCHW tensors; convolution is im2col + matmul, the standard CPU route.
// Every Conv2d and Linear product, forward and backward, runs through the
// blocked GEMM in gemm.hpp; the reference loops they are tested against
// live in testkit (oracle.hpp).
// See docs/PERFORMANCE.md for the contract.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lhd/nn/tensor.hpp"
#include "lhd/util/rng.hpp"

namespace lhd::nn {

/// A trainable parameter: the value vector and its gradient accumulator,
/// both in the layer's storage layout. With `stream_rows` = 0 that is also
/// the weight stream's order (serialize.hpp). With `stream_rows` = R > 0,
/// `value` holds the transpose of the [R × size/R] row-major matrix the
/// stream stores: Linear keeps its [out][in] weight as [in][out].
struct Param {
  std::vector<float>* value = nullptr;
  std::vector<float>* grad = nullptr;
  int stream_rows = 0;
};

/// `v`, a value or gradient of `p` in storage layout, in stream order.
std::vector<float> to_stream_order(const Param& p, std::span<const float> v);
/// The inverse: stream-order data `s` in `p`'s storage layout.
std::vector<float> from_stream_order(const Param& p,
                                     std::span<const float> s);

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Forward pass; `training` toggles dropout-style behaviour. The layer
  /// caches whatever it needs for backward().
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Evaluation-mode forward pass with no side effects: no backward caches
  /// are written, so concurrent infer() calls on the same layer are safe.
  /// Output is bit-identical to forward(input, /*training=*/false).
  virtual Tensor infer(const Tensor& input) const = 0;

  /// Backward pass: takes dL/d(output), accumulates parameter gradients,
  /// returns dL/d(input). With `input_grad` false the caller will not read
  /// dL/d(input) (the network's first layer): a layer may skip computing
  /// it and return an empty tensor, as Conv2d and Linear do. Parameter
  /// gradients accumulate the same either way.
  virtual Tensor backward(const Tensor& grad_output,
                          bool input_grad = true) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Initialize weights (He-normal for conv/fc); stateless layers no-op.
  virtual void init(Rng& /*rng*/) {}
};

/// 2-D convolution, stride 1, symmetric zero padding.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int pad);

  std::string name() const override { return "conv2d"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output,
                  bool input_grad = true) override;
  std::vector<Param> params() override;
  void init(Rng& rng) override;

  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int kernel() const { return k_; }
  int pad() const { return pad_; }

 private:
  /// Shape checks, then batched im2col+GEMM: one col matrix and one
  /// blocked GEMM per chunk of samples (the whole batch when it fits the
  /// scratch budget).
  Tensor apply(const Tensor& input) const;
  /// Writes the im2col row r for this sample at col + r*pitch (pitch ≥
  /// oh*ow; the batched path interleaves samples with a larger pitch).
  void im2col(const float* src, int h, int w, float* col,
              std::size_t pitch) const;
  void col2im(const float* col, int h, int w, float* dst) const;

  int in_c_, out_c_, k_, pad_;
  std::vector<float> weight_, weight_grad_;  // [out_c][in_c*k*k]
  std::vector<float> bias_, bias_grad_;      // [out_c]
  Tensor input_;                             // cached for backward
};

class Relu final : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output,
                  bool input_grad = true) override;

 private:
  std::vector<std::uint8_t> mask_;
};

/// 2x2 max pooling, stride 2 (input H, W must be even).
class MaxPool2 final : public Layer {
 public:
  std::string name() const override { return "maxpool2"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output,
                  bool input_grad = true) override;

 private:
  Tensor apply(const Tensor& input, std::vector<int>* argmax) const;

  std::vector<int> argmax_;
  std::vector<int> in_shape_;
};

/// Fully connected layer; flattens any input to [N, in_features].
class Linear final : public Layer {
 public:
  Linear(int in_features, int out_features);

  std::string name() const override { return "linear"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output,
                  bool input_grad = true) override;
  std::vector<Param> params() override;
  void init(Rng& rng) override;

 private:
  /// Shape checks, then one GEMM against the in-place weight.
  Tensor apply(const Tensor& input) const;

  int in_f_, out_f_;
  // [in_f][out_f]: the GEMM's k × n B operand, read in place. The weight
  // stream stores the transpose, [out_f][in_f] (Param::stream_rows).
  std::vector<float> weight_, weight_grad_;
  std::vector<float> bias_, bias_grad_;
  Tensor input_;
  std::vector<int> in_shape_;
};

/// Inverted dropout (train-time scaling by 1/(1-p)).
class Dropout final : public Layer {
 public:
  explicit Dropout(double p, std::uint64_t seed = 7);

  std::string name() const override { return "dropout"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output,
                  bool input_grad = true) override;

 private:
  double p_;
  Rng rng_;
  std::vector<std::uint8_t> mask_;
  std::vector<int> in_shape_;
};

}  // namespace lhd::nn
