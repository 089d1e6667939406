#pragma once
/// @file shallow_detector.hpp
/// @brief Adapter wiring {feature extractor -> scaler -> shallow
/// classifier} into the Detector interface, with optional imbalance-aware
/// upsampling of the training set.
///
/// Thread-safety: follows the Detector contract — train() fits the whole
/// chain exclusively; score()/predict() only read the fitted extractor,
/// scaler and classifier, so concurrent inference is safe.

#include <memory>

#include "lhd/core/detector.hpp"
#include "lhd/feature/extractor.hpp"
#include "lhd/feature/scaler.hpp"
#include "lhd/ml/classifier.hpp"

namespace lhd::core {

struct ShallowDetectorConfig {
  /// Target minority ratio for upsampling; 0 disables.
  double upsample_ratio = 0.35;
  bool mirror_augment = true;
  geom::Coord augment_shift_nm = 16;  ///< replica translation jitter
  int augment_factor = 2;  ///< whole-set symmetry/shift replication
  bool standardize = true;
  std::uint64_t seed = 11;
};

class ShallowDetector final : public Detector {
 public:
  ShallowDetector(std::string name,
                  std::unique_ptr<feature::Extractor> extractor,
                  std::unique_ptr<ml::BinaryClassifier> classifier,
                  ShallowDetectorConfig config = {});

  std::string name() const override { return name_; }
  void train(const data::Dataset& train_set) override;
  float score(const data::Clip& clip) const override;
  bool predict(const data::Clip& clip) const override;
  void set_threshold(float threshold) override;
  float threshold() const override;

  const feature::Extractor& extractor() const { return *extractor_; }
  const ml::BinaryClassifier& classifier() const { return *classifier_; }

 private:
  std::vector<float> features_for(const data::Clip& clip) const;

  std::string name_;
  std::unique_ptr<feature::Extractor> extractor_;
  std::unique_ptr<ml::BinaryClassifier> classifier_;
  ShallowDetectorConfig config_;
  feature::Scaler scaler_;
};

}  // namespace lhd::core
