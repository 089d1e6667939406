#include "lhd/core/shallow_detector.hpp"

#include "lhd/data/augment.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/log.hpp"
#include "lhd/util/stopwatch.hpp"

namespace lhd::core {

std::vector<float> Detector::score_batch(std::span<const data::Clip> clips) const {
  std::vector<float> out;
  out.reserve(clips.size());
  for (const auto& clip : clips) out.push_back(score(clip));
  return out;
}

std::vector<bool> Detector::predict_all(const data::Dataset& ds) const {
  std::vector<bool> out;
  out.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) out.push_back(predict(ds[i]));
  return out;
}

ShallowDetector::ShallowDetector(
    std::string name, std::unique_ptr<feature::Extractor> extractor,
    std::unique_ptr<ml::BinaryClassifier> classifier,
    ShallowDetectorConfig config)
    : name_(std::move(name)),
      extractor_(std::move(extractor)),
      classifier_(std::move(classifier)),
      config_(config) {
  LHD_CHECK(extractor_ != nullptr && classifier_ != nullptr,
            "null extractor/classifier");
}

void ShallowDetector::train(const data::Dataset& train_set) {
  LHD_CHECK(!train_set.empty(), "empty training set");
  Stopwatch sw;

  Rng rng(config_.seed);
  data::Dataset scratch;
  const data::Dataset& source = data::prepare_training_set(
      train_set, config_.augment_factor, config_.mirror_augment,
      config_.augment_shift_nm, config_.upsample_ratio, rng, scratch);

  auto x = feature::extract_all(*extractor_, source);
  const auto y = feature::signed_labels(source);

  if (config_.standardize) {
    scaler_.fit(x);
    scaler_.transform_all(x);
  }
  classifier_->fit(x, y);
  LHD_LOG(Debug) << name_ << " trained on " << source.size() << " clips in "
                 << sw.seconds() << "s";
}

std::vector<float> ShallowDetector::features_for(
    const data::Clip& clip) const {
  auto f = extractor_->extract(clip);
  if (config_.standardize && scaler_.fitted()) scaler_.transform(f);
  return f;
}

float ShallowDetector::score(const data::Clip& clip) const {
  return classifier_->score(features_for(clip));
}

bool ShallowDetector::predict(const data::Clip& clip) const {
  return classifier_->predict(features_for(clip));
}

void ShallowDetector::set_threshold(float threshold) {
  classifier_->set_threshold(threshold);
}

float ShallowDetector::threshold() const { return classifier_->threshold(); }

}  // namespace lhd::core
