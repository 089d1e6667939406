// Serve workloads: one in-process lhd::serve::Server holding the bench
// model, kClients client threads, each with its own socketpair connection
// and a blocking serve::Client.
//
//   serve_hot   score-clip over a 256-pattern working set, far below the
//               4096-entry model cache; during the nominal phase one
//               reload-weights of the same blob every 2 s swaps in an
//               empty cache (miss bursts).
//   serve_cold  every score-clip misses: each measured phase starts
//               from an empty cache and walks ~9k distinct windows, more
//               than twice the cache, so a window comes back only after it
//               was evicted. Each request pays raster, DCT and a batch-1
//               forward on the score workers.
//
// After a saturating warm-up, a run has two measured phases:
//   * closed loop — every client sends its next request as soon as the
//     last is answered; throughput_per_s is the answered rate;
//   * nominal — an open loop: request g is due at t0 + g / rate whatever
//     the server does, and its latency is timed from that due time, so a
//     stall also delays the requests behind it. p50_ms is its median;
//     p99 and how late the generator ran are reported beside it.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "lhd/core/scan.hpp"
#include "lhd/data/clip_hash.hpp"
#include "lhd/nn/serialize.hpp"
#include "lhd/serve/client.hpp"
#include "lhd/serve/server.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/util/rng.hpp"
#include "probe.hpp"

namespace lhd::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr std::size_t kHotPatterns = 256;
constexpr double kReloadPeriodSeconds = 2.0;
constexpr std::size_t kClosedLoopRequests = std::size_t{1} << 18;

struct ServeShape {
  bool hot = true;
  double nominal_rps = 0.0;    ///< open-loop rate of the nominal phase
  double phase_seconds = 0.0;  ///< length of each measured phase
};

struct ServeInputs {
  data::Dataset split;
  std::shared_ptr<core::CnnDetector> model;
  gds::Library chip;
  std::vector<data::Clip> clips;         ///< hot: working set; cold: stream
  std::vector<serve::Request> requests;  ///< one score-clip per clip
  serve::Request reload;                 ///< the model's own weights
  // Declared last: connections close before the server stops.
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::FdTransport>> connections;
};

std::unique_ptr<ServeInputs> setup_serve(const Options& opt,
                                         const ServeShape& shape,
                                         std::size_t stream_length) {
  auto in = std::make_unique<ServeInputs>();
  in->split = build_split(opt.seed, bench_split_size(opt), 0);
  in->model = train_bench_model(in->split, opt);

  // Request clips are windows cut from a seeded chip of unique tiles.
  const int tiles = opt.smoke ? 8 : shape.hot ? 16 : 48;
  in->chip = build_bench_chip(tiles, 0, derive_seed(opt.seed, 5));
  const core::ChipIndex index =
      core::ChipIndex::from_library(in->chip, "TOP", synth::kChipLayer);
  const std::size_t wanted = shape.hot ? kHotPatterns : stream_length;
  std::vector<geom::Rect> windows =
      sample_windows(index.extent(), wanted, derive_seed(opt.seed, 6));
  Rng order(derive_seed(opt.seed, 7));
  order.shuffle(windows);  // the cold stream visits the chip in random order
  core::ChipIndex::QueryScratch scratch;
  for (const geom::Rect& w : windows) {
    data::Clip clip;
    clip.rects = index.query(w, scratch);
    clip.window_nm = kWindowNm;
    if (clip.rects.empty()) continue;
    serve::Request request;
    request.body = serve::ScoreClip{"", kWindowNm, clip.rects};
    in->requests.push_back(std::move(request));
    in->clips.push_back(std::move(clip));
  }

  std::ostringstream blob;
  nn::save_weights(in->model->network(), blob);
  const std::string bytes = blob.str();
  in->reload.body =
      serve::ReloadWeights{"", std::vector<std::uint8_t>(bytes.begin(),
                                                         bytes.end())};

  serve::ServerConfig config;
  config.session_workers = kClients;
  in->server = std::make_unique<serve::Server>(config);
  in->server->add_model("bench", in->model,
                        serve::cnn_weight_loader("bench",
                                                 bench_model_config(opt)));
  for (int c = 0; c < kClients; ++c) {
    auto [server_end, client_end] = serve::socketpair_transport();
    in->server->attach(std::move(server_end));
    in->connections.push_back(std::move(client_end));
  }
  return in;
}

/// One open-loop phase: the outcome of every request.
struct Phase {
  double rate = 0.0;
  std::vector<std::size_t> clip;   ///< clip index of request g
  std::vector<double> latency;     ///< seconds from due time; inf = failed
  std::vector<double> lag;         ///< seconds the send ran late
  std::vector<float> score;        ///< NaN unless the answer was Ok
  std::size_t failed = 0;
  std::size_t reloads = 0;
};

/// `q` quantile of `field` over every request of `parts`.
double pooled_quantile(const std::vector<Phase>& parts,
                       std::vector<double> Phase::*field, double q) {
  std::vector<double> all;
  for (const Phase& part : parts) {
    all.insert(all.end(), (part.*field).begin(), (part.*field).end());
  }
  return quantile(std::move(all), q);
}

/// Client 0 sends a reload-weights when the reload clock says so.
struct ReloadClock {
  bool enabled = false;
  Clock::time_point next;
};

/// Sends phase.clip.size() score-clip requests at phase.rate from
/// kClients threads (client c sends requests c, c + kClients, ...).
void run_open_loop(ServeInputs& in, Phase& phase, ReloadClock& reloads,
                   std::uint64_t first_request_id) {
  const std::size_t n = phase.clip.size();
  phase.latency.assign(n, 0.0);
  phase.lag.assign(n, 0.0);
  phase.score.assign(n, std::nanf(""));
  std::vector<std::size_t> failed(kClients, 0);
  std::vector<std::size_t> reloaded(kClients, 0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  if (reloads.enabled && reloads.next == Clock::time_point{}) {
    reloads.next = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kReloadPeriodSeconds));
  }
  const auto client_loop = [&](int c) {
    prctl(PR_SET_TIMERSLACK, 1UL);  // wake on time, not up to 50 us late
    serve::Client client(*in.connections[static_cast<std::size_t>(c)],
                         static_cast<std::uint32_t>(c));
    for (std::size_t g = static_cast<std::size_t>(c); g < n; g += kClients) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(g) /
                                                 phase.rate));
      std::this_thread::sleep_until(due);
      try {
        if (c == 0 && reloads.enabled && Clock::now() >= reloads.next) {
          reloads.next += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(kReloadPeriodSeconds));
          ++reloaded[0];
          if (serve::response_status(client.call(in.reload)) !=
              serve::Status::Ok) {
            ++failed[0];
          }
        }
        const Clock::time_point sent = Clock::now();
        serve::Response response;
        {
          const Span span("serve.request", first_request_id + g);
          response = client.call(in.requests[phase.clip[g]]);
        }
        const Clock::time_point done = Clock::now();
        phase.lag[g] = std::chrono::duration<double>(sent - due).count();
        const auto* ok = std::get_if<serve::ScoreResult>(&response.body);
        if (ok != nullptr && std::isfinite(ok->score)) {
          phase.score[g] = ok->score;
          phase.latency[g] = std::chrono::duration<double>(done - due).count();
        } else {
          ++failed[static_cast<std::size_t>(c)];
          phase.latency[g] = HUGE_VAL;
        }
      } catch (const std::exception&) {  // transport died: the rest fail
        for (; g < n; g += kClients) {
          ++failed[static_cast<std::size_t>(c)];
          phase.latency[g] = HUGE_VAL;
        }
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    phase.failed += failed[static_cast<std::size_t>(c)];
    phase.reloads += reloaded[static_cast<std::size_t>(c)];
  }
}

/// Hands out the clip indices of successive phases: random draws from the
/// working set (hot) or the next never-sent stream windows (cold).
class RequestPlan {
 public:
  RequestPlan(bool hot, std::size_t clips, std::uint64_t seed)
      : hot_(hot), clips_(clips), rng_(seed) {}

  std::vector<std::size_t> next(std::size_t count) {
    std::vector<std::size_t> out(count);
    for (std::size_t& i : out) {
      i = hot_ ? static_cast<std::size_t>(rng_.next_below(clips_))
               : next_++ % clips_;
    }
    return out;
  }

 private:
  bool hot_;
  std::size_t clips_;
  Rng rng_;
  std::size_t next_ = 0;
};

Phase make_phase(RequestPlan& plan, double rate, double seconds) {
  Phase phase;
  phase.rate = rate;
  phase.clip = plan.next(static_cast<std::size_t>(std::llround(rate * seconds)));
  return phase;
}

/// Untimed answer check over a seeded sample of the phase's requests:
/// Detector::score on exactly the clip the client sent, compared with ==.
/// The server promises the score of the request's canonical clip (its
/// memo key); answer_mismatch counts answers that differ from the sent
/// clip's own score.
void check_answers(const ServeInputs& in, const Phase& phase,
                   std::uint64_t seed, RunResult& out) {
  std::vector<std::size_t> sample(phase.clip.size());
  for (std::size_t g = 0; g < sample.size(); ++g) sample[g] = g;
  Rng rng(seed);
  rng.shuffle(sample);
  sample.resize(std::min(sample.size(), kCheckedAnswers));
  std::uint64_t mismatch = 0, broken = 0;
  for (const std::size_t g : sample) {
    const float got = phase.score[g];
    const data::Clip& clip = in.clips[phase.clip[g]];
    data::Clip canonical;
    canonical.rects = data::canonical_clip(clip.rects, clip.window_nm).rects;
    canonical.window_nm = clip.window_nm;
    broken += !(got == in.model->score(canonical));
    mismatch += !(got == in.model->score(clip));
  }
  out.counts["sampled"] = sample.size();
  out.counts["answer_mismatch"] = mismatch;
  if (broken > 0) {
    out.fail(std::to_string(broken) +
             " sampled answers differ from the server's own contract");
  }
}

/// Closed loop: each client sends its next request as soon as the last
/// one is answered, for `seconds`; returns answered requests per second.
/// Client c takes requests c, c + kClients, ... of `order`, wrapping.
double run_closed_loop(ServeInputs& in, const std::vector<std::size_t>& order,
                       double seconds, std::size_t& sent,
                       std::size_t& failed) {
  std::vector<std::size_t> done(kClients, 0), bad(kClients, 0);
  std::vector<Clock::time_point> last(kClients);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const auto client_loop = [&](int c) {
    const auto me = static_cast<std::size_t>(c);
    serve::Client client(*in.connections[me], static_cast<std::uint32_t>(c));
    try {
      for (std::size_t k = me; Clock::now() < deadline; k += kClients) {
        const serve::Response response =
            client.call(in.requests[order[k % order.size()]]);
        const auto* ok = std::get_if<serve::ScoreResult>(&response.body);
        bad[me] += ok == nullptr || !std::isfinite(ok->score);
        ++done[me];
      }
    } catch (const std::exception&) {  // transport died
      ++bad[me];
    }
    last[me] = Clock::now();
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);
  for (auto& t : clients) t.join();
  std::size_t answered = 0;
  for (int c = 0; c < kClients; ++c) {
    const auto me = static_cast<std::size_t>(c);
    sent += done[me];
    failed += bad[me];
    answered += done[me] - std::min(done[me], bad[me]);
  }
  const double elapsed = std::chrono::duration<double>(
                             *std::max_element(last.begin(), last.end()) - t0)
                             .count();
  return static_cast<double>(answered) / elapsed;
}

RunResult run_serve(const Options& opt, const ServeShape& shape) {
  RunResult out;
  // Cold clips cover the open-loop phases and wrap in the closed loop:
  // far more clips than the cache holds, so a repeat is always a miss.
  const auto stream_length =
      static_cast<std::size_t>(shape.nominal_rps * shape.phase_seconds * 2) +
      kHotPatterns;
  double setup_s = 0.0;
  const std::unique_ptr<ServeInputs> in = repeated_setup<ServeInputs>(
      opt, setup_s, [&] { return setup_serve(opt, shape, stream_length); });
  LHD_CHECK(!in->clips.empty(), "no request clips");

  RequestPlan plan(shape.hot, in->clips.size(), derive_seed(opt.seed, 8));
  ReloadClock reloads;
  // Warm-up, untimed: fill the cache with the working set (hot) or touch
  // the code paths (cold), then saturate the server.
  std::size_t sent = 0, failed = 0;
  {
    Phase warm;
    warm.rate = shape.nominal_rps;
    if (shape.hot) {
      warm.clip.resize(in->clips.size());
      for (std::size_t i = 0; i < warm.clip.size(); ++i) warm.clip[i] = i;
    } else {
      warm.clip = plan.next(kHotPatterns);
    }
    run_open_loop(*in, warm, reloads, 0);
    sent += warm.clip.size();
    failed += warm.failed;
    (void)run_closed_loop(*in, plan.next(kClosedLoopRequests),
                          opt.smoke ? 0.1 : kWarmSeconds, sent, failed);
  }

  // A cold phase starts from an empty cache (a reload of the same
  // weights): a window the previous phase sent must not be cached still.
  const auto start_phase = [&] {
    if (shape.hot) return;
    serve::Client client(*in->connections[0]);
    ++sent;
    failed += serve::response_status(client.call(in->reload)) !=
              serve::Status::Ok;
  };

  double capacity = 0.0;
  if (!opt.trace) {
    start_phase();
    capacity = run_closed_loop(*in, plan.next(kClosedLoopRequests),
                               shape.phase_seconds, sent, failed);
  }

  // The nominal rate, open loop. A traced run alternates untraced and
  // traced quarters, so that both halves see the same machine state.
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kTraceCapacity);
  const int parts = opt.trace ? 4 : 1;
  std::vector<Phase> nominal, traced;
  std::uint64_t next_id = 1;
  for (int part = 0; part < parts; ++part) {
    const bool on = part % 2 == 1;
    set_active_tracer(on ? tracer.get() : nullptr);
    Phase phase = make_phase(plan, shape.nominal_rps,
                             shape.phase_seconds / (opt.trace ? 2 : 1));
    start_phase();
    reloads.enabled = shape.hot;
    run_open_loop(*in, phase, reloads, next_id);
    reloads.enabled = false;
    next_id += phase.clip.size();
    sent += phase.clip.size() + phase.reloads;
    failed += phase.failed;
    (on ? traced : nominal).push_back(std::move(phase));
  }
  set_active_tracer(nullptr);
  const double p50 = pooled_quantile(nominal, &Phase::latency, 0.5);

  serve::Client stats_client(*in->connections[0]);
  const serve::Response stats_response = stats_client.stats();
  const auto* stats_body = std::get_if<serve::StatsResult>(&stats_response.body);
  LHD_CHECK(stats_body != nullptr, "stats op failed");
  const obs::Json stats = obs::Json::parse(stats_body->json);
  // Per-tenant tallies span the whole run; the model's cache statistics
  // restart with every reload.
  double hits = 0.0, misses = 0.0;
  for (const auto& [name, value] : stats.at("counters").members()) {
    if (name.ends_with(".cache_hits")) hits += value.as_double();
    if (name.ends_with(".cache_misses")) misses += value.as_double();
  }
  const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const double queue_depth_max =
      stats.at("histograms").at("serve.queue_depth").at("max").as_double();

  check_answers(*in, nominal.front(), derive_seed(opt.seed, 9), out);
  std::size_t nominal_requests = 0;
  for (const Phase& phase : nominal) nominal_requests += phase.clip.size();
  out.attempted = sent;
  out.failed = failed;
  out.counts["nominal_requests"] = nominal_requests;
  out.info["nominal_rps"] = shape.nominal_rps;
  out.info["p50_us"] = 1e6 * p50;
  out.info["p99_us"] = 1e6 * pooled_quantile(nominal, &Phase::latency, 0.99);
  out.info["gen_lag_p99_us"] =
      1e6 * pooled_quantile(nominal, &Phase::lag, 0.99);
  out.info["closed_loop_rps"] = capacity;
  out.info["error_rate"] =
      static_cast<double>(failed) / static_cast<double>(sent);
  out.info["cache_hit_ratio"] = hit_ratio;
  out.info["queue_depth_max"] = queue_depth_max;
  out.info["reloads"] = stats.at("counters").at("serve.reloads").as_double();
  if (failed > 0) out.fail(std::to_string(failed) + " requests failed");

  if (!opt.trace) {
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"throughput_per_s", capacity, "1/s"},
        {"p50_ms", 1e3 * p50, "ms"},
    };
    return out;
  }

  // One item is one request: a round trip that hits the cache, plus the
  // extra cost of a miss for the share of requests that miss.
  ItemProfile item;
  item.untraced_s = p50;
  item.traced_s = pooled_quantile(traced, &Phase::latency, 0.5);
  item.calls = {{"serve.roundtrip_us", 1.0},
                {"serve.handle_miss_us", 1.0 - hit_ratio},
                {"serve.handle_hit_us", hit_ratio - 1.0}};
  item.queue_depth_max = queue_depth_max;
  item.serve_cache_hit_ratio = hit_ratio;

  ProbeInputs probe;
  probe.layout = &in->chip;
  probe.windows = sample_windows(in->chip.layer_bbox("TOP", synth::kChipLayer),
                                 kProbeSamples, derive_seed(opt.seed, 4));
  probe.clips.assign(in->clips.begin(),
                     in->clips.begin() + static_cast<std::ptrdiff_t>(std::min(
                                             in->clips.size(), kProbeSamples)));
  probe.split = &in->split;
  probe.model = in->model;
  set_active_tracer(tracer.get());
  out.metrics = finish_trace(opt, *tracer, probe, item);
  return out;
}

}  // namespace

RunResult run_serve_hot(const Options& opt) {
  ServeShape shape;
  shape.hot = true;
  shape.nominal_rps = 8000;
  shape.phase_seconds = opt.smoke ? 0.5 : opt.seconds / 2;
  return run_serve(opt, shape);
}

RunResult run_serve_cold(const Options& opt) {
  ServeShape shape;
  shape.hot = false;
  shape.nominal_rps = 1000;
  shape.phase_seconds = opt.smoke ? 0.5 : opt.seconds / 2;
  return run_serve(opt, shape);
}

}  // namespace lhd::bench
