#pragma once
/// @file cnn_detector.hpp
/// @brief The deep-learning detector: DCT feature tensor -> hotspot CNN,
/// with the survey's imbalance-aware preparation (minority upsampling +
/// mirror augmentation) and three training modes (plain / biased learning
/// / batch biased learning).
///
/// Thread-safety: follows the Detector contract — train() is exclusive;
/// score()/predict() route through Network::infer(), the side-effect-free
/// forward path, so concurrent inference on a trained instance never
/// touches training caches.

#include <memory>

#include "lhd/core/detector.hpp"
#include "lhd/feature/extractor.hpp"
#include "lhd/nn/serialize.hpp"
#include "lhd/nn/trainer.hpp"

namespace lhd::core {

enum class CnnTrainMode { Plain, Biased, BatchBiased };

struct CnnDetectorConfig {
  feature::DctConfig dct;          ///< feature tensor parameters
  CnnTrainMode mode = CnnTrainMode::Plain;
  nn::TrainConfig train;           ///< base training parameters
  double bias_lambda = 0.25;       ///< Biased mode λ
  int bias_epochs = 8;             ///< Biased mode fine-tune epochs
  std::vector<double> lambda_schedule = {0.1, 0.2, 0.3};  ///< BatchBiased
  int epochs_per_stage = 4;        ///< BatchBiased
  double upsample_ratio = 0.35;    ///< 0 disables imbalance handling
  bool mirror_augment = true;
  geom::Coord augment_shift_nm = 16;  ///< replica translation jitter
  int augment_factor = 3;  ///< whole-set symmetry/shift replication
  std::uint64_t seed = 11;
};

class CnnDetector final : public Detector {
 public:
  explicit CnnDetector(std::string name, CnnDetectorConfig config = {});

  std::string name() const override { return name_; }
  void train(const data::Dataset& train_set) override;
  /// Score = P(hotspot) - 0.5 - threshold, so 0 keeps the natural 0.5 cut.
  float score(const data::Clip& clip) const override;
  /// Real batched forward pass: one feature-extraction +
  /// Network::forward_batch() sweep over the span instead of per clip, so
  /// every conv/linear layer runs one batched im2col+GEMM. Batching only
  /// changes the GEMM's n/m extent, never the per-element accumulation
  /// order, so each element matches score() bit-for-bit (see
  /// docs/PERFORMANCE.md). An empty span returns an empty vector.
  std::vector<float> score_batch(std::span<const data::Clip> clips) const override;
  bool predict(const data::Clip& clip) const override;
  std::vector<bool> predict_all(const data::Dataset& ds) const override;
  void set_threshold(float threshold) override { threshold_ = threshold; }
  float threshold() const override { return threshold_; }

  /// P(hotspot) for one clip.
  float probability(const data::Clip& clip) const;

  /// Per-epoch training history of the last train() call.
  const std::vector<nn::EpochStats>& history() const { return history_; }

  nn::Network& network() { return net_; }
  const feature::Extractor& extractor() const { return *extractor_; }

  /// Weight persistence (architecture is implied by the config).
  void save(const std::string& path) { nn::save_weights_file(net_, path); }
  void load(const std::string& path) { nn::load_weights_file(net_, path); }

 private:
  std::string name_;
  CnnDetectorConfig config_;
  std::unique_ptr<feature::Extractor> extractor_;
  nn::Network net_;
  std::unique_ptr<nn::Trainer> trainer_;
  std::vector<nn::EpochStats> history_;
  float threshold_ = 0.0f;
};

}  // namespace lhd::core
