#include "lhd/feature/extractor.hpp"

#include "lhd/obs/registry.hpp"
#include "lhd/obs/timer.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::feature {

namespace {

class DensityExtractor final : public Extractor {
 public:
  explicit DensityExtractor(DensityConfig config) : config_(config) {}
  std::string name() const override { return "density"; }
  std::vector<float> extract(const data::Clip& clip) const override {
    return density_features(clip, config_);
  }
  std::array<int, 3> shape() const override {
    return {1, 1, config_.grid * config_.grid};
  }

 private:
  DensityConfig config_;
};

class CcasExtractor final : public Extractor {
 public:
  explicit CcasExtractor(CcasConfig config) : config_(config) {}
  std::string name() const override { return "ccas"; }
  std::vector<float> extract(const data::Clip& clip) const override {
    return ccas_features(clip, config_);
  }
  std::array<int, 3> shape() const override {
    return {1, 1, config_.rings * config_.sectors};
  }

 private:
  CcasConfig config_;
};

class DctExtractor final : public Extractor {
 public:
  explicit DctExtractor(DctConfig config) : config_(config) {}
  std::string name() const override { return "dct-tensor"; }
  std::vector<float> extract(const data::Clip& clip) const override {
    // shape() is fixed per extractor, so a clip of another size would
    // only fail later, deep in the network, as a row of the wrong size.
    LHD_CHECK_MSG(clip.window_nm == kWindowNm,
                  "dct-tensor extractor: clip window_nm " << clip.window_nm
                      << " does not fit the " << shape()[1] << "x"
                      << shape()[2] << " block grid of window_nm "
                      << kWindowNm);
    return dct_tensor(clip, config_).values;
  }
  std::array<int, 3> shape() const override {
    const int px = static_cast<int>(kWindowNm / config_.pixel_nm);
    const int g = px / config_.block;
    return {config_.coefficients, g, g};
  }

 private:
  /// All benchmark clips share this window; the grid derives from it.
  static constexpr geom::Coord kWindowNm = 1024;
  DctConfig config_;
};

}  // namespace

std::unique_ptr<Extractor> make_density_extractor(DensityConfig config) {
  return std::make_unique<DensityExtractor>(config);
}

std::unique_ptr<Extractor> make_ccas_extractor(CcasConfig config) {
  return std::make_unique<CcasExtractor>(config);
}

std::unique_ptr<Extractor> make_dct_extractor(DctConfig config) {
  return std::make_unique<DctExtractor>(config);
}

std::vector<std::vector<float>> extract_all(const Extractor& extractor,
                                            const data::Dataset& ds) {
  // Per-feature-kind cost profile: one wall-clock observation per batch
  // keyed by the extractor's name, plus a clip tally. Kept outside the
  // per-clip loop so the parallel hot path stays untouched.
  double batch_seconds = 0.0;
  std::vector<std::vector<float>> rows(ds.size());
  {
    obs::ScopedTimer timer(batch_seconds);
    ThreadPool::global().parallel_for(0, ds.size(), [&](std::size_t i) {
      rows[i] = extractor.extract(ds[i]);
    });
  }
  if (!ds.empty()) {
    auto& reg = obs::Registry::global();
    const std::string kind = "feature." + extractor.name();
    reg.add(kind + ".clips", ds.size());
    reg.observe(kind + ".seconds", batch_seconds);
    reg.observe(kind + ".us_per_clip",
                1e6 * batch_seconds / static_cast<double>(ds.size()));
  }
  return rows;
}

std::vector<float> signed_labels(const data::Dataset& ds) {
  std::vector<float> y(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    y[i] = ds[i].is_hotspot() ? 1.0f : -1.0f;
  }
  return y;
}

}  // namespace lhd::feature
