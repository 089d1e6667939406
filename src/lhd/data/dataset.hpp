#pragma once
// Dataset container + shuffle/filter/statistics helpers.

#include <cstddef>
#include <string>
#include <vector>

#include "lhd/data/clip.hpp"
#include "lhd/util/rng.hpp"

namespace lhd::data {

struct DatasetStats {
  std::size_t total = 0;
  std::size_t hotspots = 0;
  std::size_t non_hotspots = 0;
  double hotspot_ratio = 0.0;  ///< hotspots / total (0 when empty)
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  std::size_t size() const { return clips_.size(); }
  bool empty() const { return clips_.empty(); }
  const Clip& operator[](std::size_t i) const { return clips_[i]; }
  Clip& operator[](std::size_t i) { return clips_[i]; }

  void add(Clip clip);
  void reserve(std::size_t n) { clips_.reserve(n); }

  const std::vector<Clip>& clips() const { return clips_; }

  DatasetStats stats() const;

  /// In-place Fisher–Yates shuffle.
  void shuffle(Rng& rng);

  /// Subset containing only the given label.
  Dataset filter(Label label) const;

  /// Concatenate (ids are renumbered to stay unique).
  void append(const Dataset& other);

 private:
  std::string name_ = "dataset";
  std::vector<Clip> clips_;
};

}  // namespace lhd::data
