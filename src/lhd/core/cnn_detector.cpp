#include "lhd/core/cnn_detector.hpp"

#include "lhd/data/augment.hpp"
#include "lhd/util/log.hpp"
#include "lhd/util/stopwatch.hpp"

namespace lhd::core {

CnnDetector::CnnDetector(std::string name, CnnDetectorConfig config)
    : name_(std::move(name)), config_(config) {
  extractor_ = feature::make_dct_extractor(config_.dct);
  const auto shape = extractor_->shape();
  net_ = nn::make_hotspot_cnn(shape[0], shape[1]);
  trainer_ = std::make_unique<nn::Trainer>(
      &net_, std::array<int, 3>{shape[0], shape[1], shape[2]});
}

void CnnDetector::train(const data::Dataset& train_set) {
  LHD_CHECK(!train_set.empty(), "empty training set");
  Stopwatch sw;

  Rng rng(config_.seed);
  data::Dataset scratch;
  const data::Dataset& source = data::prepare_training_set(
      train_set, config_.augment_factor, config_.mirror_augment,
      config_.augment_shift_nm, config_.upsample_ratio, rng, scratch);

  const auto x = feature::extract_all(*extractor_, source);
  const auto y = feature::signed_labels(source);

  nn::TrainConfig base = config_.train;
  base.seed = config_.seed;
  switch (config_.mode) {
    case CnnTrainMode::Plain:
      history_ = trainer_->train(x, y, base);
      break;
    case CnnTrainMode::Biased: {
      nn::BiasedTrainConfig bl;
      bl.pretrain = base;
      bl.lambda = config_.bias_lambda;
      bl.bias_epochs = config_.bias_epochs;
      history_ = nn::train_biased(*trainer_, x, y, bl);
      break;
    }
    case CnnTrainMode::BatchBiased: {
      nn::BatchBiasedConfig bbl;
      bbl.pretrain = base;
      bbl.lambda_schedule = config_.lambda_schedule;
      bbl.epochs_per_stage = config_.epochs_per_stage;
      history_ = nn::train_batch_biased(*trainer_, x, y, bbl);
      break;
    }
  }
  LHD_LOG(Debug) << name_ << " trained on " << source.size() << " clips in "
                 << sw.seconds() << "s (" << history_.size() << " epochs)";
}

float CnnDetector::probability(const data::Clip& clip) const {
  return trainer_->predict_proba(extractor_->extract(clip));
}

float CnnDetector::score(const data::Clip& clip) const {
  return probability(clip) - 0.5f;
}

std::vector<float> CnnDetector::score_batch(std::span<const data::Clip> clips) const {
  if (clips.empty()) return {};
  nn::Rows rows(clips.size());
  for (std::size_t i = 0; i < clips.size(); ++i) {
    rows[i] = extractor_->extract(clips[i]);
  }
  std::vector<float> out = trainer_->predict_proba_batch(rows);
  for (float& p : out) p -= 0.5f;
  return out;
}

bool CnnDetector::predict(const data::Clip& clip) const {
  return score(clip) > threshold_;
}

std::vector<bool> CnnDetector::predict_all(const data::Dataset& ds) const {
  nn::Rows rows(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    rows[i] = extractor_->extract(ds[i]);
  }
  const auto probs = trainer_->predict_proba_batch(rows);
  std::vector<bool> out(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    out[i] = probs[i] - 0.5f > threshold_;
  }
  return out;
}

}  // namespace lhd::core
