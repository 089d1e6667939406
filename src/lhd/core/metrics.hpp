#pragma once
/// @file metrics.hpp
/// @brief ICCAD-2012-contest-style evaluation metrics.
///
///   accuracy     = hotspot detection rate (recall on the hotspot class)
///   false alarms = count of non-hotspots flagged
///   ODST         = "overall detection simulation time": detector runtime
///                  plus the lithography-simulation time needed to verify
///                  every alarm it raises (tp + fp clips).
///
/// Thread-safety: everything here is a pure function over its arguments
/// (Confusion is a plain value type); all of it is safe to call
/// concurrently with no shared state.

#include <cstddef>
#include <vector>

#include "lhd/data/dataset.hpp"

namespace lhd::core {

struct Confusion {
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;

  std::size_t total() const { return tp + fp + tn + fn; }
  std::size_t hotspots() const { return tp + fn; }
  std::size_t alarms() const { return tp + fp; }

  /// Hotspot detection rate — the contest's "accuracy".
  double accuracy() const {
    return hotspots() ? static_cast<double>(tp) / static_cast<double>(hotspots())
                      : 1.0;
  }
  double false_alarm_rate() const {
    const auto n = fp + tn;
    return n ? static_cast<double>(fp) / static_cast<double>(n) : 0.0;
  }
  double precision() const {
    return alarms() ? static_cast<double>(tp) / static_cast<double>(alarms())
                    : 1.0;
  }
  double f1() const {
    const double p = precision();
    const double r = accuracy();
    return (p + r) > 0 ? 2 * p * r / (p + r) : 0.0;
  }
};

/// Compare predictions against dataset labels.
Confusion evaluate(const std::vector<bool>& predictions,
                   const data::Dataset& ds);

/// ODST in seconds: detector test time + sim_seconds_per_clip * alarms.
double odst_seconds(const Confusion& c, double test_seconds,
                    double sim_seconds_per_clip);

/// Wall time of simulating every clip instead (the no-detector baseline).
double full_simulation_seconds(std::size_t clips,
                               double sim_seconds_per_clip);

/// Threshold-free ranking quality: area under the ROC curve of detector
/// scores against the dataset labels (Mann–Whitney U statistic, ties count
/// half). Returns 0.5 when either class is absent.
double roc_auc(const std::vector<float>& scores, const data::Dataset& ds);

}  // namespace lhd::core
