#include "lhd/nn/optimizer.hpp"

#include <cmath>

namespace lhd::nn {

void Optimizer::attach(std::vector<Param> params) {
  params_ = std::move(params);
  m_.clear();
  v_.clear();
  t_ = 0;
  for (const auto& p : params_) {
    m_.emplace_back(p.value->size(), 0.0f);
    v_.emplace_back(p.value->size(), 0.0f);
  }
}

void Optimizer::step() {
  ++t_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bias1 = 1.0 - std::pow(b1, t_);
  const double bias2 = 1.0 - std::pow(b2, t_);
  const double lr = config_.learning_rate;
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    auto& w = *params_[pi].value;
    auto& g = *params_[pi].grad;
    auto& m = m_[pi];
    auto& v = v_[pi];
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double grad = g[i] + config_.weight_decay * w[i];
      m[i] = static_cast<float>(b1 * m[i] + (1.0 - b1) * grad);
      v[i] = static_cast<float>(b2 * v[i] + (1.0 - b2) * grad * grad);
      const double mh = m[i] / bias1;
      const double vh = v[i] / bias2;
      w[i] -= static_cast<float>(lr * mh /
                                 (std::sqrt(vh) + config_.epsilon));
      g[i] = 0.0f;
    }
  }
}

std::unique_ptr<Optimizer> make_adam(AdamConfig config) {
  return std::make_unique<Optimizer>(config);
}

}  // namespace lhd::nn
