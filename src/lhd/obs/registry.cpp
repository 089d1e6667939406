#include "lhd/obs/registry.hpp"

namespace lhd::obs {

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  const MutexLock lock(mutex_);
  return counters_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  const MutexLock lock(mutex_);
  return histograms_[name];
}

void Registry::add(const std::string& name, std::uint64_t delta) {
  counter(name).add(delta);
}

void Registry::observe(const std::string& name, double value) {
  histogram(name).observe(value);
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  const MutexLock lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter.value();
  return out;
}

std::map<std::string, HistogramSnapshot> Registry::histograms() const {
  const MutexLock lock(mutex_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : histograms_) out[name] = hist.snapshot();
  return out;
}

void Registry::reset() {
  const MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter.reset();
  for (auto& [name, hist] : histograms_) hist.reset();
}

}  // namespace lhd::obs
