#pragma once
// The traced run's per-layer view. Every workload reports every per-layer
// metric BENCHMARK.json lists:
//
//  * times come from the layer probe, which calls each public layer
//    function under a span over the workload's *own* inputs (its chip or
//    layout, its windows or request clips, its split, its model) — so a
//    layer's cost is measured on the data that workload feeds it;
//  * counts and ratios come from the workload's own run and are 0 where
//    the workload does not use that layer;
//  * trace.coverage weighs each layer time by how often one work item
//    calls it and divides by the untraced item time times the threads the
//    item runs on; trace.overhead_pct compares traced and untraced items.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace lhd::bench {

struct ProbeInputs {
  const gds::Library* layout = nullptr;  ///< geometry the workload reads
  std::vector<geom::Rect> windows;       ///< windows of `layout` to query
  std::vector<data::Clip> clips;         ///< window-local clips it scores
  const data::Dataset* split = nullptr;  ///< the labelled split
  std::shared_ptr<core::CnnDetector> model;
};

/// How one work item of a workload uses the layers, measured by its run.
struct ItemProfile {
  double untraced_s = 0.0;  ///< median item time, tracing off
  double traced_s = 0.0;    ///< median item time, tracing on
  double lanes = 1.0;       ///< threads one item runs on
  /// Per-layer metric name -> calls per item (layers the item uses).
  std::map<std::string, double> calls;
  double invocations = 0.0;  ///< detector invocations per item
  double probes = 0.0;       ///< score-cache probes per item
  double cache_hit_ratio = 0.0;
  double replay_ratio = 0.0;
  double queue_depth_max = 0.0;
  double serve_cache_hit_ratio = 0.0;
};

/// Runs the layer probe under the active tracer, then turns the recorded
/// spans and `item` into the per-layer metrics (BENCHMARK.json order) and
/// writes the spans to BENCH_trace_<workload>.json.
std::vector<Metric> finish_trace(const Options& opt, Tracer& tracer,
                                 const ProbeInputs& probe,
                                 const ItemProfile& item);

/// Windows or clips of a workload the layer probe runs over.
inline constexpr std::size_t kProbeSamples = 256;

/// Span capacity of a traced run.
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;

}  // namespace lhd::bench
