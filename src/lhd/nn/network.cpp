#include "lhd/nn/network.hpp"

#include "lhd/util/check.hpp"

namespace lhd::nn {

void Network::init(Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

Tensor Network::forward(const Tensor& input, bool training) {
  LHD_CHECK(!layers_.empty(), "empty network");
  Tensor t = input;
  for (auto& l : layers_) t = l->forward(t, training);
  return t;
}

Tensor Network::infer(const Tensor& input) const {
  LHD_CHECK(!layers_.empty(), "empty network");
  Tensor t = input;
  for (const auto& l : layers_) t = l->infer(t);
  return t;
}

Tensor Network::forward_batch(std::span<const std::vector<float>> rows,
                              const std::array<int, 3>& sample_shape) const {
  LHD_CHECK(!rows.empty(), "empty batch");
  const std::size_t sample = static_cast<std::size_t>(sample_shape[0]) *
                             static_cast<std::size_t>(sample_shape[1]) *
                             static_cast<std::size_t>(sample_shape[2]);
  Tensor in({static_cast<int>(rows.size()), sample_shape[0], sample_shape[1],
             sample_shape[2]});
  for (std::size_t s = 0; s < rows.size(); ++s) {
    LHD_CHECK(rows[s].size() == sample, "row size != input shape");
    std::copy(rows[s].begin(), rows[s].end(), in.data() + s * sample);
  }
  return infer(in);
}

void Network::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->backward(g, /*input_grad=*/i > 0);
  }
}

std::vector<Param> Network::params() {
  std::vector<Param> all;
  for (auto& l : layers_) {
    for (auto& p : l->params()) all.push_back(p);
  }
  return all;
}

std::size_t Network::param_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->size();
  return n;
}

Network make_hotspot_cnn(int in_channels, int grid) {
  LHD_CHECK(grid % 4 == 0, "grid must be divisible by 4 (two pools)");
  Network net;
  net.add(std::make_unique<Conv2d>(in_channels, 24, 3, 1));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Conv2d>(24, 24, 3, 1));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<MaxPool2>());
  net.add(std::make_unique<Conv2d>(24, 32, 3, 1));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<MaxPool2>());
  const int flat = 32 * (grid / 4) * (grid / 4);
  net.add(std::make_unique<Linear>(flat, 64));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Dropout>(0.3));
  net.add(std::make_unique<Linear>(64, 2));
  return net;
}

}  // namespace lhd::nn
