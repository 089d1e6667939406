#pragma once
// The Adam optimizer operating on Param handles (value + grad pairs).
// step() consumes the accumulated gradients and zeroes them.

#include <memory>
#include <vector>

#include "lhd/nn/layers.hpp"

namespace lhd::nn {

struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 1e-4;
};

/// Adam with L2 weight decay folded into the gradient.
class Optimizer {
 public:
  explicit Optimizer(AdamConfig config = {}) : config_(config) {}

  /// Bind the parameter set (allocates the per-parameter moments).
  void attach(std::vector<Param> params);

  /// Apply one update from the accumulated gradients, then zero them.
  void step();

 private:
  AdamConfig config_;
  std::vector<Param> params_;
  std::vector<std::vector<float>> m_, v_;
  long long t_ = 0;
};

std::unique_ptr<Optimizer> make_adam(AdamConfig config = {});

}  // namespace lhd::nn
