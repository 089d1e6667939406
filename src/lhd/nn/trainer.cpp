#include "lhd/nn/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "lhd/obs/registry.hpp"
#include "lhd/obs/timer.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/log.hpp"

namespace lhd::nn {

namespace {

/// Flush one finished epoch's cost profile to the global registry.
void record_epoch(const EpochStats& stats) {
  auto& reg = obs::Registry::global();
  reg.add("nn.epochs");
  reg.observe("nn.epoch_seconds", stats.seconds);
  reg.observe("nn.epoch_loss", stats.loss);
}

}  // namespace

Trainer::Trainer(Network* net, std::array<int, 3> input_shape)
    : net_(net), shape_(input_shape) {
  LHD_CHECK(net_ != nullptr, "null network");
  LHD_CHECK(shape_[0] > 0 && shape_[1] > 0 && shape_[2] > 0,
            "bad input shape");
}

Tensor Trainer::make_batch(const Rows& x,
                           const std::vector<std::size_t>& order,
                           std::size_t begin, std::size_t end) const {
  const int n = static_cast<int>(end - begin);
  const std::size_t sample =
      static_cast<std::size_t>(shape_[0]) * shape_[1] * shape_[2];
  Tensor batch({n, shape_[0], shape_[1], shape_[2]});
  for (std::size_t s = begin; s < end; ++s) {
    const auto& row = x[order[s]];
    LHD_CHECK(row.size() == sample, "row size != input shape");
    std::copy(row.begin(), row.end(),
              batch.data() + (s - begin) * sample);
  }
  return batch;
}

std::vector<EpochStats> Trainer::train(const Rows& x,
                                       const std::vector<float>& y,
                                       const TrainConfig& config) {
  Rng rng(config.seed);
  net_->init(rng);
  return run_epochs(x, y, config, rng, 0);
}

std::vector<EpochStats> Trainer::continue_training(
    const Rows& x, const std::vector<float>& y, const TrainConfig& config,
    int epoch_offset) {
  Rng rng(config.seed + 1000);
  return run_epochs(x, y, config, rng, epoch_offset);
}

std::vector<EpochStats> Trainer::run_epochs(const Rows& x,
                                            const std::vector<float>& y,
                                            const TrainConfig& config,
                                            Rng& rng, int epoch_offset) {
  LHD_CHECK(!x.empty() && x.size() == y.size(), "bad training data");
  Optimizer opt(
      {config.learning_rate, 0.9, 0.999, 1e-8, config.weight_decay});
  opt.attach(net_->params());

  std::vector<EpochStats> history;
  std::vector<std::size_t> order(x.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    EpochStats stats;
    stats.epoch = epoch_offset + epoch;
    stats.lambda = config.bias_lambda;
    run_epoch(x, y, config, opt, order, stats);
    record_epoch(stats);
    history.push_back(stats);
    LHD_LOG(Debug) << "epoch " << stats.epoch << ": loss " << stats.loss
                   << " acc " << stats.accuracy << " recall " << stats.recall
                   << " fa " << stats.false_alarm;
  }
  return history;
}

void Trainer::run_epoch(const Rows& x, const std::vector<float>& y,
                        const TrainConfig& config, Optimizer& opt,
                        const std::vector<std::size_t>& order,
                        EpochStats& stats) {
  obs::ScopedTimer epoch_timer(stats.seconds);
  const std::size_t n = x.size();
  double loss_sum = 0.0;
  std::size_t batches = 0;
  std::size_t correct = 0;
  std::size_t tp = 0, fn = 0, fp = 0, tn = 0;
  const auto lambda = static_cast<float>(config.bias_lambda);

  for (std::size_t start = 0; start < n;
       start += static_cast<std::size_t>(config.batch)) {
    const std::size_t end =
        std::min(n, start + static_cast<std::size_t>(config.batch));
    Tensor batch = make_batch(x, order, start, end);
    const int bn = static_cast<int>(end - start);

    Tensor targets({bn, 2});
    for (int s = 0; s < bn; ++s) {
      const bool hot = y[order[start + static_cast<std::size_t>(s)]] > 0;
      // channel 0 = non-hotspot, 1 = hotspot; biased learning shifts the
      // non-hotspot target towards the hotspot side by lambda.
      if (hot) {
        targets[static_cast<std::size_t>(s) * 2 + 0] = 0.0f;
        targets[static_cast<std::size_t>(s) * 2 + 1] = 1.0f;
      } else {
        targets[static_cast<std::size_t>(s) * 2 + 0] = 1.0f - lambda;
        targets[static_cast<std::size_t>(s) * 2 + 1] = lambda;
      }
    }

    const Tensor logits = net_->forward(batch, /*training=*/true);
    const LossResult lr = softmax_cross_entropy(logits, targets);
    net_->backward(lr.grad);
    opt.step();

    loss_sum += lr.loss;
    ++batches;
    for (int s = 0; s < bn; ++s) {
      const bool hot = y[order[start + static_cast<std::size_t>(s)]] > 0;
      const bool pred = lr.probs[static_cast<std::size_t>(s) * 2 + 1] > 0.5f;
      correct += (pred == hot);
      if (hot && pred) ++tp;
      if (hot && !pred) ++fn;
      if (!hot && pred) ++fp;
      if (!hot && !pred) ++tn;
    }
  }

  obs::Registry::global().add("nn.batches", batches);
  stats.loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
  stats.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  stats.recall =
      (tp + fn) ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
  stats.false_alarm =
      (fp + tn) ? static_cast<double>(fp) / static_cast<double>(fp + tn) : 0.0;
}

float Trainer::predict_proba(const std::vector<float>& row) const {
  Tensor in({1, shape_[0], shape_[1], shape_[2]});
  LHD_CHECK(row.size() == in.size(), "row size != input shape");
  std::copy(row.begin(), row.end(), in.data());
  // infer() is the side-effect-free path: prediction never perturbs
  // backward caches and is safe from concurrent threads.
  const Tensor logits = net_->infer(in);
  const Tensor probs = softmax(logits);
  return probs[1];
}

std::vector<float> Trainer::predict_proba_batch(const Rows& rows) const {
  std::vector<float> out;
  out.reserve(rows.size());
  // Chunked batched inference: each chunk is ONE Network::forward_batch —
  // a single batched im2col+GEMM per conv/linear layer on the fast kernel
  // path. The chunk bound caps activation memory, not GEMM granularity.
  constexpr std::size_t kChunk = 64;
  const std::span<const std::vector<float>> all(rows);
  for (std::size_t start = 0; start < rows.size(); start += kChunk) {
    const std::size_t end = std::min(rows.size(), start + kChunk);
    const Tensor probs = softmax(
        net_->forward_batch(all.subspan(start, end - start), shape_));
    for (std::size_t s = 0; s < end - start; ++s) {
      out.push_back(probs[s * 2 + 1]);
    }
  }
  return out;
}

std::vector<EpochStats> train_biased(Trainer& trainer, const Rows& x,
                                     const std::vector<float>& y,
                                     const BiasedTrainConfig& config) {
  TrainConfig phase1 = config.pretrain;
  phase1.bias_lambda = 0.0;
  auto history = trainer.train(x, y, phase1);

  TrainConfig phase2 = config.pretrain;
  phase2.bias_lambda = config.lambda;
  phase2.epochs = config.bias_epochs;
  phase2.learning_rate = config.pretrain.learning_rate * 0.3;  // fine-tune
  auto h2 = trainer.continue_training(x, y, phase2,
                                      static_cast<int>(history.size()));
  history.insert(history.end(), h2.begin(), h2.end());
  return history;
}

std::vector<EpochStats> train_batch_biased(Trainer& trainer, const Rows& x,
                                           const std::vector<float>& y,
                                           const BatchBiasedConfig& config) {
  TrainConfig phase1 = config.pretrain;
  phase1.bias_lambda = 0.0;
  auto history = trainer.train(x, y, phase1);

  for (const double lambda : config.lambda_schedule) {
    TrainConfig stage = config.pretrain;
    stage.bias_lambda = lambda;
    stage.epochs = config.epochs_per_stage;
    stage.learning_rate = config.pretrain.learning_rate * 0.3;
    auto hs = trainer.continue_training(x, y, stage,
                                        static_cast<int>(history.size()));
    history.insert(history.end(), hs.begin(), hs.end());
    if (!history.empty() &&
        history.back().false_alarm > config.max_false_alarm) {
      LHD_LOG(Debug) << "batch-BL stopping: training FA "
                     << history.back().false_alarm << " > "
                     << config.max_false_alarm << " at lambda " << lambda;
      break;
    }
  }
  return history;
}

}  // namespace lhd::nn
