// Finite-difference gradient checks for the trainable layers and the
// loss. Analytic backward() gradients are compared against central
// differences of a scalar loss L = sum_i c_i * out_i (fixed random
// coefficients), for both the input gradient and every parameter
// gradient. The forward and backward being checked are the ones production
// runs (the blocked GEMM path), which the nn-kernel-parity and
// nn-backward-parity properties hold to testkit's reference loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "lhd/nn/layers.hpp"
#include "lhd/nn/loss.hpp"
#include "lhd/util/rng.hpp"

namespace lhd::nn {
namespace {

constexpr double kEps = 1e-2;      // FD step — large enough for float noise
constexpr double kRelTol = 2e-2;   // relative agreement required
constexpr double kAbsFloor = 1e-3; // below this magnitude, compare absolutely

void expect_grad_close(double analytic, double fd, const std::string& what) {
  const double scale = std::max(std::abs(analytic), std::abs(fd));
  const double tol = std::max(kAbsFloor, kRelTol * scale);
  EXPECT_LE(std::abs(analytic - fd), tol)
      << what << ": analytic " << analytic << " vs finite-difference " << fd;
}

/// L(layer(x)) with fixed coefficients — the scalar being differentiated.
double loss_of(Layer& layer, const Tensor& x,
               const std::vector<float>& coeffs) {
  const Tensor out = layer.forward(x, /*training=*/true);
  EXPECT_EQ(out.size(), coeffs.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    loss += static_cast<double>(coeffs[i]) * static_cast<double>(out[i]);
  }
  return loss;
}

/// Check dL/dx and every dL/dparam of `layer` at input `x` against central
/// differences.
void check_layer_gradients(Layer& layer, Tensor x, Rng& rng) {
  const Tensor out0 = layer.forward(x, /*training=*/true);
  std::vector<float> coeffs(out0.size());
  for (float& c : coeffs) c = static_cast<float>(rng.next_double(-1.0, 1.0));

  Tensor grad_out(out0.shape());
  for (std::size_t i = 0; i < coeffs.size(); ++i) grad_out[i] = coeffs[i];
  for (const Param& p : layer.params()) {
    std::fill(p.grad->begin(), p.grad->end(), 0.0f);
  }
  const Tensor grad_in = layer.backward(grad_out);
  ASSERT_EQ(grad_in.size(), x.size());

  for (std::size_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(kEps);
    const double lp = loss_of(layer, x, coeffs);
    x[i] = orig - static_cast<float>(kEps);
    const double lm = loss_of(layer, x, coeffs);
    x[i] = orig;
    expect_grad_close(grad_in[i], (lp - lm) / (2.0 * kEps),
                      "input grad [" + std::to_string(i) + "]");
  }

  std::size_t param_idx = 0;
  for (const Param& p : layer.params()) {
    for (std::size_t j = 0; j < p.value->size(); ++j) {
      const float orig = (*p.value)[j];
      (*p.value)[j] = orig + static_cast<float>(kEps);
      const double lp = loss_of(layer, x, coeffs);
      (*p.value)[j] = orig - static_cast<float>(kEps);
      const double lm = loss_of(layer, x, coeffs);
      (*p.value)[j] = orig;
      expect_grad_close((*p.grad)[j], (lp - lm) / (2.0 * kEps),
                        "param " + std::to_string(param_idx) + " grad [" +
                            std::to_string(j) + "]");
    }
    ++param_idx;
  }
}

Tensor random_tensor(Rng& rng, std::vector<int> shape) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double(-1.0, 1.0));
  }
  return t;
}

TEST(NnGradTest, Conv2dBackwardMatchesFiniteDifferences) {
  Rng rng(101);
  Conv2d layer(/*in_channels=*/2, /*out_channels=*/3, /*kernel=*/3,
               /*pad=*/1);
  layer.init(rng);
  check_layer_gradients(layer, random_tensor(rng, {2, 2, 6, 6}), rng);
}

TEST(NnGradTest, Conv2dNoPaddingBackwardMatchesFiniteDifferences) {
  // pad=0 exercises the valid-convolution index arithmetic in backward.
  Rng rng(202);
  Conv2d layer(/*in_channels=*/1, /*out_channels=*/2, /*kernel=*/3,
               /*pad=*/0);
  layer.init(rng);
  check_layer_gradients(layer, random_tensor(rng, {1, 1, 5, 5}), rng);
}

TEST(NnGradTest, LinearBackwardMatchesFiniteDifferences) {
  Rng rng(303);
  Linear layer(/*in_features=*/10, /*out_features=*/4);
  layer.init(rng);
  check_layer_gradients(layer, random_tensor(rng, {3, 10}), rng);
}

TEST(NnGradTest, SoftmaxCrossEntropyGradMatchesFiniteDifferences) {
  Rng rng(404);
  Tensor logits = random_tensor(rng, {3, 2});
  // Soft targets: random positive rows normalized to sum to 1 (the
  // biased-learning target shape, not just one-hot).
  Tensor targets({3, 2});
  for (int s = 0; s < 3; ++s) {
    float sum = 0.0f;
    for (int c = 0; c < 2; ++c) {
      const auto v = static_cast<float>(rng.next_double(0.05, 1.0));
      targets[static_cast<std::size_t>(s * 2 + c)] = v;
      sum += v;
    }
    for (int c = 0; c < 2; ++c) {
      targets[static_cast<std::size_t>(s * 2 + c)] /= sum;
    }
  }
  const LossResult r = softmax_cross_entropy(logits, targets);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + static_cast<float>(kEps);
    const double lp = softmax_cross_entropy(logits, targets).loss;
    logits[i] = orig - static_cast<float>(kEps);
    const double lm = softmax_cross_entropy(logits, targets).loss;
    logits[i] = orig;
    expect_grad_close(r.grad[i], (lp - lm) / (2.0 * kEps),
                      "loss grad [" + std::to_string(i) + "]");
  }
}

}  // namespace
}  // namespace lhd::nn
