#include "lhd/data/dataset.hpp"

#include "lhd/util/check.hpp"

namespace lhd::data {

void Dataset::add(Clip clip) {
  clip.id = static_cast<std::uint32_t>(clips_.size());
  clips_.push_back(std::move(clip));
}

DatasetStats Dataset::stats() const {
  DatasetStats s;
  s.total = clips_.size();
  for (const auto& c : clips_) {
    if (c.is_hotspot()) {
      ++s.hotspots;
    } else {
      ++s.non_hotspots;
    }
  }
  s.hotspot_ratio = s.total == 0
                        ? 0.0
                        : static_cast<double>(s.hotspots) /
                              static_cast<double>(s.total);
  return s;
}

void Dataset::shuffle(Rng& rng) { rng.shuffle(clips_); }

Dataset Dataset::filter(Label label) const {
  Dataset out(name_);
  for (const auto& c : clips_) {
    if (c.label == label) out.add(c);
  }
  return out;
}

void Dataset::append(const Dataset& other) {
  reserve(size() + other.size());
  for (const auto& c : other.clips()) add(c);
}

}  // namespace lhd::data
