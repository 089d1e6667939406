#pragma once
// Mini-batch trainer for the hotspot CNN, including the survey's
// deep-learning training recipes:
//
//  * plain training (softmax CE, Adam);
//  * biased learning (Yang et al.): after convergence at λ=0, continue
//    training with the *non-hotspot* targets shifted from (0,1) to
//    (λ, 1-λ), which pushes the decision boundary into non-hotspot
//    territory and trades a small false-alarm penalty for hotspot recall;
//  * batch biased learning: a λ schedule with an on-training-set
//    false-alarm guard, automating the λ choice.
//
// Class order convention throughout: channel 0 = non-hotspot,
// channel 1 = hotspot. Labels arrive as signed floats (+1 hotspot).

#include <array>
#include <vector>

#include "lhd/nn/network.hpp"
#include "lhd/nn/optimizer.hpp"

namespace lhd::nn {

// Rows (flat CHW sample rows) lives in network.hpp next to forward_batch.

struct TrainConfig {
  int epochs = 25;
  int batch = 32;
  double learning_rate = 1e-3;
  double weight_decay = 1e-4;
  double bias_lambda = 0.0;     ///< non-hotspot soft-target shift
  std::uint64_t seed = 42;
};

struct EpochStats {
  int epoch = 0;
  double loss = 0.0;
  double accuracy = 0.0;     ///< overall training accuracy
  double recall = 0.0;       ///< hotspot recall on the training set
  double false_alarm = 0.0;  ///< non-hotspots flagged / non-hotspots
  double lambda = 0.0;       ///< bias in effect this epoch
  double seconds = 0.0;      ///< epoch wall time (also in obs "nn.epoch_seconds")
};

class Trainer {
 public:
  /// `input_shape` is {channels, height, width} of one sample.
  Trainer(Network* net, std::array<int, 3> input_shape);

  /// Train on flat CHW rows with signed labels; returns per-epoch stats.
  /// Re-initializes the network weights.
  std::vector<EpochStats> train(const Rows& x, const std::vector<float>& y,
                                const TrainConfig& config);

  /// Continue training from the current weights (fresh optimizer state) —
  /// the fine-tune phase of biased learning. `epoch_offset` only relabels
  /// the returned stats.
  std::vector<EpochStats> continue_training(const Rows& x,
                                            const std::vector<float>& y,
                                            const TrainConfig& config,
                                            int epoch_offset = 0);

  /// P(hotspot) for one flat CHW row.
  float predict_proba(const std::vector<float>& row) const;
  std::vector<float> predict_proba_batch(const Rows& rows) const;

  Network& network() { return *net_; }

 private:
  Tensor make_batch(const Rows& x, const std::vector<std::size_t>& order,
                    std::size_t begin, std::size_t end) const;
  /// The shared epoch loop of train() and continue_training(): a fresh
  /// optimizer, then per epoch shuffle with `rng`, run_epoch and record.
  /// `epoch_offset` relabels the returned stats.
  std::vector<EpochStats> run_epochs(const Rows& x,
                                     const std::vector<float>& y,
                                     const TrainConfig& config, Rng& rng,
                                     int epoch_offset);
  void run_epoch(const Rows& x, const std::vector<float>& y,
                 const TrainConfig& config, Optimizer& opt,
                 const std::vector<std::size_t>& order, EpochStats& stats);

  Network* net_;
  std::array<int, 3> shape_;
};

struct BiasedTrainConfig {
  TrainConfig pretrain;      ///< phase 1 (λ forced to 0)
  int bias_epochs = 10;      ///< phase 2 length
  double lambda = 0.25;      ///< phase 2 non-hotspot target shift
};

/// Two-phase biased learning. Returns concatenated epoch stats.
std::vector<EpochStats> train_biased(Trainer& trainer, const Rows& x,
                                     const std::vector<float>& y,
                                     const BiasedTrainConfig& config);

struct BatchBiasedConfig {
  TrainConfig pretrain;
  std::vector<double> lambda_schedule = {0.1, 0.2, 0.3};
  int epochs_per_stage = 4;
  /// Abort the schedule once training false alarms exceed this rate.
  double max_false_alarm = 0.08;
};

/// Batch biased learning: walk the λ schedule, stopping when the training
/// false-alarm guard trips. Returns concatenated epoch stats.
std::vector<EpochStats> train_batch_biased(Trainer& trainer, const Rows& x,
                                           const std::vector<float>& y,
                                           const BatchBiasedConfig& config);

}  // namespace lhd::nn
