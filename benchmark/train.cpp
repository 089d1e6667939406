// Training workload: CnnDetector::train on the seeded split, repeated for
// --seconds. One work item is one train() call: DCT feature extraction of
// the split, then forward + backward + optimizer over every batch of
// every epoch. No scan or serve code runs. Upsampling and augmentation
// are off, so every seed trains on exactly the same number of samples.

#include <cmath>

#include "bench.hpp"
#include "lhd/core/metrics.hpp"
#include "lhd/geom/polygon.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "probe.hpp"

namespace lhd::bench {

namespace {

struct TrainInputs {
  data::Dataset train;
  data::Dataset test;
};

core::CnnDetectorConfig train_config(const Options& opt) {
  core::CnnDetectorConfig config;
  config.train.epochs = opt.smoke ? 1 : 8;
  config.train.batch = 32;
  config.augment_factor = 1;
  config.upsample_ratio = 0.0;
  return config;
}

/// The training clips laid out as a chip (one structure per clip, placed
/// on a square grid): the geometry the layer probe's layout layers read.
gds::Library clip_layout(const std::vector<data::Clip>& clips) {
  gds::Library lib;
  gds::Structure* top = &lib.add_structure("TOP");
  const auto side = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(clips.size()))));
  for (std::size_t i = 0; i < clips.size(); ++i) {
    const std::string name = "CLIP_" + std::to_string(i);
    gds::Structure& cell = lib.add_structure(name);
    for (const geom::Rect& r : clips[i].rects) {
      gds::Boundary b;
      b.layer = synth::kChipLayer;
      b.polygon = geom::Polygon::from_rect(r);
      cell.add(std::move(b));
    }
    gds::SRef ref;
    ref.structure = name;
    ref.transform.origin = {static_cast<geom::Coord>(i % side) * kWindowNm,
                            static_cast<geom::Coord>(i / side) * kWindowNm};
    top->add(std::move(ref));
  }
  return lib;
}

}  // namespace

RunResult run_train(const Options& opt) {
  RunResult out;
  double setup_s = 0.0;
  const int count = opt.smoke ? 64 : 512;
  const std::unique_ptr<TrainInputs> in = repeated_setup<TrainInputs>(
      opt, setup_s, [&] {
        auto inputs = std::make_unique<TrainInputs>();
        inputs->train = build_split(opt.seed, count, 0);
        inputs->test = build_split(opt.seed, count / 2, 1);
        return inputs;
      });

  const core::CnnDetectorConfig config = train_config(opt);
  std::shared_ptr<core::CnnDetector> model;
  std::vector<double> aucs;
  const auto train_once = [&] {
    auto detector = std::make_shared<core::CnnDetector>("train", config);
    const double t0 = now_seconds();
    {
      const Span span("core.train");
      detector->train(in->train);
    }
    const double seconds = now_seconds() - t0;
    const std::vector<float> scores = detector->score_batch(in->test.clips());
    for (const float s : scores) {
      if (!std::isfinite(s)) {
        out.fail("non-finite test score");
        break;
      }
    }
    aucs.push_back(core::roc_auc(scores, in->test));
    model = std::move(detector);
    return seconds;
  };
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kTraceCapacity);
  const ItemTimes times =
      time_items(opt.seconds, 0.0, opt.trace ? 2 : 1, tracer.get(), train_once);
  const std::vector<double>& calls = times.untraced;

  const auto samples = static_cast<double>(in->train.size());
  const auto epochs = static_cast<double>(config.train.epochs);
  out.attempted = (calls.size() + times.traced.size()) * in->train.size();
  // Training is deterministic for a seed: every call must reach the same
  // model, and a model that learned anything ranks better than chance
  // (over seeds 11-30 the lowest test AUC was 0.66; the one-epoch smoke
  // model is not held to it).
  for (const double auc : aucs) {
    if (auc != aucs.front()) out.fail("train() is not deterministic");
  }
  if (!opt.smoke && !(aucs.front() > 0.5)) {
    out.fail("test AUC " + std::to_string(aucs.front()) + " <= 0.5");
  }
  out.counts["test_auc"] = aucs.front();
  out.counts["train_samples"] = in->train.size();
  out.counts["test_hotspots"] = in->test.stats().hotspots;
  out.info["calls"] = calls.size();
  out.info["epochs"] = config.train.epochs;

  if (!opt.trace) {
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"throughput_per_s", samples * epochs / median(calls), "1/s"},
        {"p50_ms", 1e3 * median(calls), "ms"},
    };
    return out;
  }

  ItemProfile item;
  item.untraced_s = median(calls);
  item.traced_s = median(times.traced);
  const double batches =
      std::ceil(samples / static_cast<double>(config.train.batch)) * epochs;
  item.calls = {{"feature.extract_all_s", 1.0},
                {"nn.train_forward_ms", batches},
                {"nn.train_backward_ms", batches},
                {"nn.optimizer_ms", batches}};

  const std::vector<data::Clip> probe_clips(
      in->train.clips().begin(),
      in->train.clips().begin() +
          static_cast<std::ptrdiff_t>(std::min(in->train.size(), kProbeSamples)));
  const gds::Library layout = clip_layout(probe_clips);
  ProbeInputs probe;
  probe.layout = &layout;
  probe.windows = sample_windows(layout.layer_bbox("TOP", synth::kChipLayer),
                                 kProbeSamples, derive_seed(opt.seed, 4));
  probe.clips = probe_clips;
  probe.split = &in->train;
  probe.model = model;
  out.metrics = finish_trace(opt, *tracer, probe, item);
  return out;
}

}  // namespace lhd::bench
