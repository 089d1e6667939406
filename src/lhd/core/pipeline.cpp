#include "lhd/core/pipeline.hpp"

#include "lhd/obs/registry.hpp"
#include "lhd/obs/timer.hpp"
#include "lhd/util/stopwatch.hpp"

namespace lhd::core {

EvalResult run_experiment(Detector& detector, const synth::BuiltSuite& suite,
                          const std::string& suite_name,
                          double sim_seconds_per_clip) {
  EvalResult r;
  r.detector = detector.name();
  r.suite = suite_name;

  Stopwatch train_sw;
  detector.train(suite.train);
  r.train_seconds = train_sw.seconds();

  Stopwatch test_sw;
  const auto predictions = detector.predict_all(suite.test);
  r.test_seconds = test_sw.seconds();

  auto& reg = obs::Registry::global();
  reg.add("pipeline.experiments");
  reg.observe("pipeline.train_seconds", r.train_seconds);
  reg.observe("pipeline.test_seconds", r.test_seconds);

  r.confusion = evaluate(predictions, suite.test);
  reg.add("pipeline.hits", r.confusion.tp);
  reg.add("pipeline.false_alarms", r.confusion.fp);
  reg.add("pipeline.clips_evaluated", r.confusion.total());
  r.odst = odst_seconds(r.confusion, r.test_seconds, sim_seconds_per_clip);
  r.full_sim =
      full_simulation_seconds(suite.test.size(), sim_seconds_per_clip);
  r.speedup = r.odst > 0 ? r.full_sim / r.odst : 0.0;
  return r;
}

std::vector<SweepPoint> threshold_sweep(
    Detector& detector, const data::Dataset& test,
    const std::vector<float>& thresholds) {
  const float original = detector.threshold();
  obs::ScopedTimer sweep_timer("pipeline.sweep_seconds");
  obs::Registry::global().add("pipeline.sweep_points", thresholds.size());
  std::vector<SweepPoint> points;
  points.reserve(thresholds.size());
  // Score once; thresholds are applied to the cached scores so the sweep
  // costs one inference pass regardless of its resolution.
  const std::vector<float> scores = detector.score_batch(test.clips());
  for (const float t : thresholds) {
    std::vector<bool> preds(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) preds[i] = scores[i] > t;
    points.push_back({t, evaluate(preds, test)});
  }
  detector.set_threshold(original);
  return points;
}

}  // namespace lhd::core
