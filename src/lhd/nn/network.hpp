#pragma once
// Sequential network container + the reference hotspot CNN architecture
// (a scaled-down variant of the feature-tensor CNN of Yang et al.: two
// conv blocks with pooling, then two fully connected layers over the
// DCT tensor input).

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "lhd/nn/layers.hpp"
#include "lhd/nn/loss.hpp"

namespace lhd::nn {

/// Flat CHW sample rows, the lingua franca of the trainer and detectors.
using Rows = std::vector<std::vector<float>>;

class Network {
 public:
  Network() = default;

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// Initialize all layer weights.
  void init(Rng& rng);

  Tensor forward(const Tensor& input, bool training);

  /// Evaluation-mode forward with no side effects (no backward caches):
  /// safe to call concurrently from many threads on the same network, and
  /// bit-identical to forward(input, /*training=*/false).
  Tensor infer(const Tensor& input) const;

  /// Batched evaluation forward over flat CHW rows of `sample_shape`
  /// ({channels, height, width}): assembles ONE [N,C,H,W] tensor and runs
  /// infer() on it, so every conv/linear layer executes a single batched im2col+GEMM for the whole batch instead of
  /// N per-sample forwards. Returns the [N, out] logits in row order.
  /// Same thread-safety and bit-identity guarantees as infer(); callers
  /// bound N (the trainer chunks) to cap activation memory.
  Tensor forward_batch(std::span<const std::vector<float>> rows,
                       const std::array<int, 3>& sample_shape) const;

  /// Backprop from dL/d(output); accumulates parameter gradients. The
  /// first layer's input gradient is never read, so it is not computed.
  void backward(const Tensor& grad_output);

  /// All trainable parameters across layers.
  std::vector<Param> params();

  /// Total number of trainable scalars.
  std::size_t param_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// The hotspot-CNN used by the deep-learning detector. Input is the DCT
/// feature tensor [channels, grid, grid] (grid must be divisible by 4).
Network make_hotspot_cnn(int in_channels, int grid);

}  // namespace lhd::nn
