#include "probe.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "lhd/core/scan.hpp"
#include "lhd/core/score_cache.hpp"
#include "lhd/data/clip_hash.hpp"
#include "lhd/feature/dct.hpp"
#include "lhd/feature/extractor.hpp"
#include "lhd/nn/loss.hpp"
#include "lhd/nn/optimizer.hpp"
#include "lhd/serve/client.hpp"
#include "lhd/serve/server.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/rng.hpp"

namespace lhd::bench {

namespace {

/// A per-layer time metric: mean self time of the spans named `span`,
/// divided by `per_call` (samples per call) and scaled to `unit`.
struct LayerDef {
  const char* metric;
  const char* span;
  const char* unit;
  double scale;
  double per_call;
};

constexpr LayerDef kLayers[] = {
    {"geom.raster_us", "geom.raster", "us", 1e6, 1},
    {"feature.dct_us", "feature.dct", "us", 1e6, 1},
    {"nn.forward_b1_us", "nn.forward_b1", "us", 1e6, 1},
    {"nn.forward_b32_us", "nn.forward_b32", "us", 1e6, 32},
    {"nn.train_forward_ms", "nn.train_forward", "ms", 1e3, 1},
    {"nn.train_backward_ms", "nn.train_backward", "ms", 1e3, 1},
    {"nn.optimizer_ms", "nn.optimizer", "ms", 1e3, 1},
    {"feature.extract_all_s", "feature.extract_all", "s", 1, 1},
    {"gds.flatten_ms", "gds.flatten", "ms", 1e3, 1},
    {"core.index_build_ms", "core.index_build", "ms", 1e3, 1},
    {"core.query_us", "core.query", "us", 1e6, 1},
    {"gds.instances_ms", "gds.instances", "ms", 1e3, 1},
    {"data.canonicalize_us", "data.canonicalize", "us", 1e6, 1},
    {"core.cache_probe_us", "core.cache_probe", "us", 1e6, 1},
    {"serve.encode_us", "serve.encode", "us", 1e6, 1},
    {"serve.decode_us", "serve.decode", "us", 1e6, 1},
    {"serve.handle_hit_us", "serve.handle_hit", "us", 1e6, 1},
    {"serve.handle_miss_us", "serve.handle_miss", "us", 1e6, 1},
    {"serve.roundtrip_us", "serve.roundtrip", "us", 1e6, 1},
};

constexpr int kBatch = 32;
constexpr int kTrainSteps = 4;

/// Runs `body` under a span named `name` at least once and until ~`budget`
/// seconds have passed, at most `max_reps` times.
template <typename Body>
void repeat_span(const char* name, double budget, int max_reps, Body body) {
  const double t0 = now_seconds();
  for (int rep = 0; rep < max_reps; ++rep) {
    {
      const Span span(name);
      body();
    }
    if (now_seconds() - t0 > budget) break;
  }
}

/// Layout layers: flatten, index build, instance enumeration, queries.
void probe_layout(const ProbeInputs& in) {
  std::vector<geom::Rect> rects;
  repeat_span("gds.flatten", 0.3, 5, [&] {
    rects = in.layout->flatten_layer("TOP", synth::kChipLayer);
  });
  std::unique_ptr<core::ChipIndex> index;
  repeat_span("core.index_build", 0.3, 5, [&] {
    index = std::make_unique<core::ChipIndex>(rects);
  });
  repeat_span("gds.instances", 0.3, 5, [&] {
    (void)in.layout->layer_instances("TOP", synth::kChipLayer);
  });
  core::ChipIndex::QueryScratch scratch;
  for (const geom::Rect& window : in.windows) {
    const Span span("core.query");
    (void)index->query(window, scratch);
  }
}

/// Clip layers: canonicalize + hash, cache probe, raster, DCT, batch-1 and
/// batch-32 forward. Returns the DCT rows for the training-step probe.
nn::Rows probe_clips(const ProbeInputs& in) {
  const core::CnnDetector& model = *in.model;
  const std::array<int, 3> shape = model.extractor().shape();
  const feature::DctConfig dct;  // the CnnDetector default
  core::ScoreCache cache(4 * in.clips.size());  // roomy: every probe hits
  std::vector<data::CanonicalClip> canon(in.clips.size());
  std::vector<std::uint64_t> hashes(in.clips.size());
  for (std::size_t i = 0; i < in.clips.size(); ++i) {
    const Span span("data.canonicalize");
    canon[i] = data::canonical_clip(in.clips[i].rects, in.clips[i].window_nm);
    hashes[i] = data::canonical_hash(canon[i]);
  }
  for (std::size_t i = 0; i < in.clips.size(); ++i) {
    cache.insert(canon[i], hashes[i], 0.0f);
  }
  for (std::size_t i = 0; i < in.clips.size(); ++i) {
    const Span span("core.cache_probe");
    (void)cache.lookup(canon[i], hashes[i]);
  }
  nn::Rows rows;
  rows.reserve(in.clips.size());
  for (const data::Clip& clip : in.clips) {
    geom::FloatImage raster;
    {
      const Span span("geom.raster");
      raster = clip.raster(dct.pixel_nm);
    }
    const Span span("feature.dct");
    rows.push_back(feature::dct_tensor_from_raster(raster, dct).values);
  }
  nn::Network& net = in.model->network();
  const std::span<const std::vector<float>> all(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Span span("nn.forward_b1");
    (void)net.forward_batch(all.subspan(i, 1), shape);
  }
  for (std::size_t i = 0; i + kBatch <= rows.size(); i += kBatch) {
    const Span span("nn.forward_b32");
    (void)net.forward_batch(all.subspan(i, kBatch), shape);
  }
  return rows;
}

/// One batch-32 training step, split into forward + loss, backward and the
/// optimizer, on a fresh network of the model's shape (the served model
/// must not change).
void probe_train_step(const ProbeInputs& in, const nn::Rows& rows) {
  const std::array<int, 3> shape = in.model->extractor().shape();
  nn::Network net = nn::make_hotspot_cnn(shape[0], shape[1]);
  Rng rng(7);
  net.init(rng);
  auto opt = nn::make_adam();
  opt->attach(net.params());
  const std::size_t sample =
      static_cast<std::size_t>(shape[0]) * shape[1] * shape[2];
  for (int step = 0; step < kTrainSteps; ++step) {
    nn::Tensor batch({kBatch, shape[0], shape[1], shape[2]});
    nn::Tensor targets({kBatch, 2});
    for (int s = 0; s < kBatch; ++s) {
      const std::size_t i =
          (static_cast<std::size_t>(step) * kBatch + s) % rows.size();
      std::copy(rows[i].begin(), rows[i].end(),
                batch.data() + static_cast<std::size_t>(s) * sample);
      const bool hot = in.clips[i].is_hotspot();
      targets[static_cast<std::size_t>(s) * 2 + (hot ? 1 : 0)] = 1.0f;
    }
    nn::LossResult loss;
    {
      const Span span("nn.train_forward");
      loss = nn::softmax_cross_entropy(net.forward(batch, true), targets);
    }
    {
      const Span span("nn.train_backward");
      net.backward(loss.grad);
    }
    const Span span("nn.optimizer");
    opt->step();
  }
}

/// Serve layers on an in-process server holding the workload's model:
/// request/response codecs, handle() on a miss then a hit, and the whole
/// round trip of a cache hit through Client::call over a socketpair.
void probe_serve(const ProbeInputs& in) {
  serve::Server server;
  server.add_model("probe", in.model);
  std::unordered_set<std::uint64_t> seen;  // canonical patterns sent so far
  for (const data::Clip& clip : in.clips) {
    serve::Request request;
    request.body = serve::ScoreClip{"", clip.window_nm, clip.rects};
    std::stringstream wire;
    {
      const Span span("serve.encode");
      serve::encode_request(request, wire);
    }
    {
      const Span span("serve.decode");
      (void)serve::decode_request(wire);
    }
    // The first request of a pattern misses the cache; a repeat of a
    // pattern (periodic chips repeat a few) is not a miss sample.
    serve::Response response;
    if (seen.insert(data::clip_hash(clip)).second) {
      const Span span("serve.handle_miss");
      response = server.handle(request);
    } else {
      response = server.handle(request);
    }
    {
      const Span span("serve.handle_hit");
      response = server.handle(request);
    }
    std::stringstream back;
    {
      const Span span("serve.encode");
      serve::encode_response(response, back);
    }
    const Span span("serve.decode");
    (void)serve::decode_response(back);
  }
  auto [server_end, client_end] = serve::socketpair_transport();
  server.attach(std::move(server_end));
  serve::Client client(*client_end);
  for (const data::Clip& clip : in.clips) {
    serve::Request request;
    request.body = serve::ScoreClip{"", clip.window_nm, clip.rects};
    const Span span("serve.roundtrip");
    (void)client.call(request);
  }
  server.stop();
}

}  // namespace

std::vector<Metric> finish_trace(const Options& opt, Tracer& tracer,
                                 const ProbeInputs& probe,
                                 const ItemProfile& item) {
  LHD_CHECK(probe.clips.size() >= static_cast<std::size_t>(kBatch),
            "the layer probe needs at least one batch of clips");
  probe_layout(probe);
  const nn::Rows rows = probe_clips(probe);
  probe_train_step(probe, rows);
  {
    const Span span("feature.extract_all");
    (void)feature::extract_all(probe.model->extractor(), *probe.split);
  }
  probe_serve(probe);
  set_active_tracer(nullptr);
  LHD_CHECK_MSG(tracer.dropped() == 0,
                tracer.dropped() << " spans did not fit the trace buffer");

  const auto layers = tracer.layer_times();
  const auto mean_self = [&](const char* span) {
    const auto it = layers.find(span);
    LHD_CHECK_MSG(it != layers.end() && it->second.calls > 0,
                  "no spans recorded for " << span);
    return it->second.self_seconds / static_cast<double>(it->second.calls);
  };

  std::vector<Metric> metrics;
  std::map<std::string, double> seconds;  // per-layer metric -> s per call
  for (const LayerDef& def : kLayers) {
    const double s = mean_self(def.span) / def.per_call;
    seconds[def.metric] = s;
    metrics.push_back({def.metric, s * def.scale, def.unit});
  }

  double covered = 0.0;
  for (const auto& [metric, calls] : item.calls) {
    const auto it = seconds.find(metric);
    LHD_CHECK_MSG(it != seconds.end(), "unknown layer metric " << metric);
    covered += calls * it->second;
  }
  metrics.push_back({"core.invocations", item.invocations, "count"});
  metrics.push_back({"core.probes", item.probes, "count"});
  metrics.push_back({"core.cache_hit_ratio", item.cache_hit_ratio, "ratio"});
  metrics.push_back({"core.replay_ratio", item.replay_ratio, "ratio"});
  metrics.push_back({"serve.queue_depth_max", item.queue_depth_max, "count"});
  metrics.push_back(
      {"serve.cache_hit_ratio", item.serve_cache_hit_ratio, "ratio"});
  metrics.push_back(
      {"trace.coverage", covered / (item.untraced_s * item.lanes), "ratio"});
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (item.traced_s / item.untraced_s - 1.0), "%"});

  const std::string path = "BENCH_trace_" + opt.workload + ".json";
  tracer.write_chrome(path);
  return metrics;
}

}  // namespace lhd::bench
