#pragma once
/// @file detector.hpp
/// @brief The public face of the library: a hotspot Detector is trained on
/// a labeled clip dataset and classifies clips. Every generation the
/// survey covers — pattern matching, shallow ML, deep learning — implements
/// this interface, so the benchmark harnesses and the full-chip scanner
/// treat them uniformly.
///
/// Thread-safety contract for implementations: train() and set_threshold()
/// are exclusive (one thread, no concurrent readers); score(), predict()
/// and predict_all() on a trained detector must be safe to call from many
/// threads at once — the sharded scanner and the parallel threshold sweep
/// rely on it, and every in-tree detector honors it.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lhd/data/dataset.hpp"

namespace lhd::core {

class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string name() const = 0;

  /// Train (or re-train) on a labeled dataset.
  virtual void train(const data::Dataset& train_set) = 0;

  /// Real-valued decision score for one clip; > decision threshold means
  /// hotspot. Scale is detector-specific; thresholds are swept relative to
  /// each detector's own score distribution.
  virtual float score(const data::Clip& clip) const = 0;

  /// Binary prediction for one clip.
  virtual bool predict(const data::Clip& clip) const = 0;

  /// Batch scoring (default: loop over score). Implementations with a real
  /// batched forward path (the CNN) override this to amortize per-call
  /// overhead; core::threshold_sweep scores its whole test set through it.
  /// Contract: element i is bit-identical to score(clips[i]) — batching
  /// (any batch size, including the edge cases: an empty span returns an
  /// empty vector, a one-clip span equals {score(clips[0])}) may change
  /// the cost, never the numbers.
  virtual std::vector<float> score_batch(std::span<const data::Clip> clips) const;

  /// Batch prediction (default: loop over predict).
  virtual std::vector<bool> predict_all(const data::Dataset& ds) const;

  /// Shift the decision threshold (for accuracy/false-alarm trade-off
  /// sweeps). Interpretation is detector-specific but monotone: larger
  /// threshold = fewer alarms.
  virtual void set_threshold(float threshold) = 0;
  virtual float threshold() const = 0;
};

}  // namespace lhd::core
