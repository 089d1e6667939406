#include "lhd/serve/server.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "lhd/core/scan.hpp"
#include "lhd/data/clip_hash.hpp"
#include "lhd/obs/json.hpp"
#include "lhd/util/stopwatch.hpp"

namespace lhd::serve {

namespace {

std::string tenant_key(std::uint32_t tenant, const char* leaf) {
  return "serve.tenant." + std::to_string(tenant) + "." + leaf;
}

std::string op_key(Op op, const char* leaf) {
  return std::string("serve.op.") +
         kOpNames[static_cast<std::size_t>(op)] + "." + leaf;
}

/// Decrements the admission counter on every exit path.
class AdmissionSlot {
 public:
  explicit AdmissionSlot(std::atomic<std::size_t>& in_flight)
      : in_flight_(in_flight) {}
  ~AdmissionSlot() { in_flight_.fetch_sub(1, std::memory_order_acq_rel); }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  std::atomic<std::size_t>& in_flight_;
};

}  // namespace

WeightLoader cnn_weight_loader(std::string name,
                               core::CnnDetectorConfig config) {
  return [name = std::move(name), config](
             const std::vector<std::uint8_t>& weights)
             -> std::shared_ptr<const core::Detector> {
    auto detector = std::make_shared<core::CnnDetector>(name, config);
    std::istringstream in(std::string(weights.begin(), weights.end()));
    nn::load_weights(detector->network(), in);  // staged; throws on bad blob
    return detector;
  };
}

Server::Server(ServerConfig config) : config_(config) {
  config_.score_workers = std::max<std::size_t>(1, config_.score_workers);
  config_.session_workers = std::max<std::size_t>(1, config_.session_workers);
  config_.max_queue = std::max<std::size_t>(1, config_.max_queue);
  score_pool_ = std::make_unique<ThreadPool>(config_.score_workers);
  sessions_ = std::make_unique<ThreadPool>(config_.session_workers);
}

Server::~Server() { stop(); }

void Server::add_model(const std::string& name,
                       std::shared_ptr<const core::Detector> detector,
                       WeightLoader loader) {
  LHD_CHECK(detector != nullptr, "add_model needs a detector");
  LHD_CHECK(!name.empty() && name.size() <= kMaxModelNameBytes,
            "model name must be 1..kMaxModelNameBytes bytes");
  const MutexLock lock(models_mutex_);
  LHD_CHECK_MSG(models_.find(name) == models_.end(),
                "model '" + name + "' is already registered — reload it");
  auto model = std::make_unique<Model>();
  model->loader = std::move(loader);
  {
    const MutexLock state_lock(model->mutex);
    model->state.detector = std::move(detector);
    model->state.cache = std::make_shared<core::ScoreCache>(
        config_.cache_capacity, config_.cache_shards);
    model->state.version = 1;
  }
  models_.emplace(name, std::move(model));
  if (default_model_.empty()) default_model_ = name;
}

Server::Model& Server::find_model(const std::string& name) const {
  const MutexLock lock(models_mutex_);
  const std::string& key = name.empty() ? default_model_ : name;
  const auto it = models_.find(key);
  if (it == models_.end()) {
    throw Error("unknown model '" + (name.empty() ? "<default>" : name) + "'");
  }
  // Safe to hand out past the lock: models_ never erases, map nodes are
  // stable, and Model's mutable state carries its own mutex.
  return *it->second;
}

Server::Model::State Server::snapshot(const std::string& name) const {
  Model& model = find_model(name);
  const MutexLock lock(model.mutex);
  return model.state;
}

std::uint64_t Server::model_version(const std::string& name) const {
  return snapshot(name).version;
}

Response Server::handle(const Request& request) {
  const Stopwatch sw;
  const Op op = request_op(request);
  registry_.counter(tenant_key(request.tenant, "requests")).add(1);
  registry_.counter(op_key(op, "requests")).add(1);

  Response resp;
  try {
    if (const auto* score = std::get_if<ScoreClip>(&request.body)) {
      resp = admit_and_run(op, request.tenant,
                           [&] { return do_score(request.tenant, *score); });
    } else if (const auto* scan = std::get_if<ScanRegion>(&request.body)) {
      resp = admit_and_run(op, request.tenant,
                           [&] { return do_scan(request.tenant, *scan); });
    } else if (const auto* reload = std::get_if<ReloadWeights>(&request.body)) {
      resp = do_reload(*reload);
    } else {
      resp.body = StatsResult{stats_json()};
    }
  } catch (const Error& e) {
    resp.body = ErrorResult{op, e.what()};
  }

  switch (response_status(resp)) {
    case Status::Ok:
      registry_.counter("serve.responses_ok").add(1);
      break;
    case Status::Busy:
      registry_.counter("serve.responses_busy").add(1);
      registry_.counter(tenant_key(request.tenant, "busy")).add(1);
      break;
    case Status::Error:
      registry_.counter("serve.responses_error").add(1);
      registry_.counter(tenant_key(request.tenant, "errors")).add(1);
      break;
  }
  registry_.histogram("serve.latency_seconds").observe(sw.seconds());
  registry_.histogram(op_key(op, "latency_seconds")).observe(sw.seconds());
  return resp;
}

Response Server::admit_and_run(Op op, std::uint32_t tenant,
                               const std::function<Response()>& work) {
  // Optimistic acquire: bump, then check the bound. Overshoot is
  // transient (each over-admitted caller immediately backs out) and can
  // only produce spurious Busy under extreme contention — never an
  // over-capacity admit.
  const std::size_t depth =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const AdmissionSlot slot(in_flight_);
  if (stopping_.load(std::memory_order_acquire)) {
    throw Error("server is stopping");
  }
  if (depth > config_.max_queue) {
    Response busy;
    busy.body = BusyResult{op};
    return busy;
  }
  registry_.histogram("serve.queue_depth").observe(static_cast<double>(depth));
  registry_.counter(tenant_key(tenant, "admitted")).add(1);

  // Errors thrown by the work are converted to a typed response *inside*
  // the pooled task, on the worker thread, so no live exception object
  // ever crosses the future boundary: the worker tearing down the task
  // state must not race with this thread reading the exception message.
  // PoolStopped is the one exception the future can still carry, and it
  // is set by submit() on this thread (never by a worker).
  Response resp;
  auto future = score_pool_->submit([&] {
    try {
      resp = work();
    } catch (const Error& e) {
      resp.body = ErrorResult{op, e.what()};
    }
  });
  try {
    future.get();
  } catch (const PoolStopped&) {
    throw Error("server is stopping");
  }
  return resp;
}

Response Server::do_score(std::uint32_t tenant, const ScoreClip& req) {
  if (req.window_nm <= 0) throw Error("score-clip: window_nm must be > 0");
  // Clip geometry is clip-local by contract ([0, window_nm)^2, see
  // data::Clip); enforcing it here also bounds every coordinate the
  // detector sees on hostile input.
  for (const auto& r : req.rects) {
    if (r.xlo < 0 || r.ylo < 0 || r.xhi > req.window_nm ||
        r.yhi > req.window_nm) {
      throw Error("score-clip: rects must lie within [0, window_nm)^2");
    }
  }
  const Model::State state = snapshot(req.model);
  const data::CanonicalClip canon =
      data::canonical_clip(req.rects, req.window_nm);
  const std::uint64_t hash = data::canonical_hash(canon);
  if (const auto hit = state.cache->lookup(canon, hash)) {
    registry_.counter(tenant_key(tenant, "cache_hits")).add(1);
    Response resp;
    resp.body = ScoreResult{*hit};
    return resp;
  }
  // The key is the clip as sent, rect order aside, so scoring it gives
  // exactly the score of the request (and of every later hit).
  data::Clip clip;
  clip.rects = canon.rects;
  clip.window_nm = canon.window_nm;
  const float score = state.detector->score(clip);
  state.cache->insert(canon, hash, score);
  registry_.counter(tenant_key(tenant, "cache_misses")).add(1);
  Response resp;
  resp.body = ScoreResult{score};
  return resp;
}

Response Server::do_scan(std::uint32_t tenant, const ScanRegion& req) {
  // Bound every quantity the grid walk adds together: coordinates to
  // ±2^30 (the GDS reader's own cap) and window/stride below 2^30, so
  // x + window_nm tops out at exactly INT32_MAX — no signed overflow on
  // any hostile input.
  constexpr geom::Coord kMaxAbsCoord = geom::Coord{1} << 30;
  if (req.window_nm <= 0 || req.stride_nm <= 0 ||
      req.window_nm >= kMaxAbsCoord || req.stride_nm >= kMaxAbsCoord) {
    throw Error("scan-region: window_nm and stride_nm must be in [1, 2^30)");
  }
  for (const auto& r : req.rects) {
    if (std::max({std::abs(std::int64_t{r.xlo}), std::abs(std::int64_t{r.ylo}),
                  std::abs(std::int64_t{r.xhi}),
                  std::abs(std::int64_t{r.yhi})}) > kMaxAbsCoord) {
      throw Error("scan-region: coordinates must be within ±2^30 nm");
    }
  }
  const Model::State state = snapshot(req.model);

  // Validate the region's bounding box in 64-bit BEFORE building the
  // spatial index: ChipIndex allocates a bucket grid proportional to the
  // extent, so two far-apart rects must be rejected here, not OOM there.
  std::int64_t xlo = 0, ylo = 0, xhi = 0, yhi = 0;
  bool any = false;
  for (const auto& r : req.rects) {
    if (r.empty()) continue;  // ChipIndex drops these too
    if (!any) {
      xlo = r.xlo, ylo = r.ylo, xhi = r.xhi, yhi = r.yhi;
      any = true;
    } else {
      xlo = std::min<std::int64_t>(xlo, r.xlo);
      ylo = std::min<std::int64_t>(ylo, r.ylo);
      xhi = std::max<std::int64_t>(xhi, r.xhi);
      yhi = std::max<std::int64_t>(yhi, r.yhi);
    }
  }
  const std::int64_t width = any ? xhi - xlo : 0;
  const std::int64_t height = any ? yhi - ylo : 0;
  if (width > config_.max_scan_extent_nm ||
      height > config_.max_scan_extent_nm) {
    throw Error("scan-region: extent " + std::to_string(width) + "x" +
                std::to_string(height) + " nm exceeds the server cap of " +
                std::to_string(config_.max_scan_extent_nm) + " nm per axis");
  }

  // Mirror grid_scan's window enumeration (one window per stride step
  // until the extent edge => ceil(extent/stride) per axis) to reject
  // oversized grids before any scanning happens.
  const auto steps = [&](std::int64_t size) {
    return size <= 0 ? std::int64_t{0}
                     : (size + req.stride_nm - 1) / req.stride_nm;
  };
  const std::int64_t windows = steps(width) * steps(height);
  if (windows > static_cast<std::int64_t>(config_.max_scan_windows)) {
    throw Error("scan-region: " + std::to_string(windows) +
                " windows exceeds the server cap of " +
                std::to_string(config_.max_scan_windows));
  }
  const core::ChipIndex index(req.rects);

  core::ScanConfig cfg;
  cfg.window_nm = req.window_nm;
  cfg.stride_nm = req.stride_nm;
  cfg.threads = 1;  // parallelism comes from concurrent requests, not shards
  cfg.dedup = true;
  cfg.cache = state.cache.get();  // process-shared across sessions + requests
  const core::ScanResult result =
      core::scan_chip(index, *state.detector, cfg);

  registry_.counter(tenant_key(tenant, "cache_hits")).add(result.cache_hits);
  registry_.counter(tenant_key(tenant, "cache_misses"))
      .add(result.cache_misses);

  ScanResultWire wire;
  wire.windows_total = result.windows_total;
  wire.cache_hits = result.cache_hits;
  wire.cache_misses = result.cache_misses;
  wire.hits.reserve(result.hits.size());
  for (const auto& hit : result.hits) {
    wire.hits.push_back(ScanHitWire{hit.window, hit.score});
  }
  Response resp;
  resp.body = std::move(wire);
  return resp;
}

Response Server::do_reload(const ReloadWeights& req) {
  Model& model = find_model(req.model);
  if (!model.loader) {
    throw Error("model does not accept weight reloads");
  }
  // Serialize reloads per model; inference keeps reading the old snapshot
  // (under model.mutex, which this does NOT hold) while the loader stages.
  const MutexLock reload_lock(model.reload_mutex);
  std::shared_ptr<const core::Detector> fresh = model.loader(req.weights);
  if (!fresh) throw Error("weight loader produced no detector");
  std::uint64_t version = 0;
  {
    const MutexLock lock(model.mutex);
    model.state.detector = std::move(fresh);
    // Fresh cache per version: memoized scores are a function of the
    // weights, so none may survive the swap.
    model.state.cache = std::make_shared<core::ScoreCache>(
        config_.cache_capacity, config_.cache_shards);
    version = ++model.state.version;
  }
  registry_.counter("serve.reloads").add(1);
  Response resp;
  resp.body = ReloadResult{version};
  return resp;
}

void Server::serve(Transport& transport) {
  std::istream& in = transport.in();
  std::ostream& out = transport.out();
  registry_.counter("serve.sessions").add(1);
  for (;;) {
    std::optional<Request> request;
    try {
      request = decode_request(in);
    } catch (const WireError& e) {
      registry_.counter("serve.wire_errors").add(1);
      if (!e.recoverable()) break;  // frame sync lost: close the session
      Response err;
      err.body = ErrorResult{e.op().value_or(Op::ScoreClip), e.what()};
      encode_response(err, out);
      out.flush();
      if (!out.good()) break;
      continue;
    }
    if (!request) break;  // clean EOF: client said goodbye
    const Response resp = handle(*request);
    encode_response(resp, out);
    out.flush();
    if (!out.good()) break;  // peer gone mid-answer
  }
}

void Server::attach(std::shared_ptr<Transport> transport) {
  LHD_CHECK(transport != nullptr, "attach needs a transport");
  {
    const MutexLock lock(sessions_mutex_);
    attached_.push_back(transport);
  }
  if (stopping_.load(std::memory_order_acquire)) {
    // stop() may already have swept attached_ — make sure this transport
    // does not strand a session loop blocked on a read.
    transport->interrupt();
  }
  // A PoolStopped future here just means the session never starts; the
  // interrupt above (or stop()'s sweep) already unblocked the peer.
  (void)sessions_->submit([this, t = std::move(transport)] { serve(*t); });
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  {
    const MutexLock lock(sessions_mutex_);
    for (const auto& transport : attached_) transport->interrupt();
  }
  // Sessions first: their loops block on score futures, so the score pool
  // must stay alive until every session drained.
  sessions_->shutdown();
  score_pool_->shutdown();
  const MutexLock lock(sessions_mutex_);
  attached_.clear();
}

std::string Server::stats_json() const {
  obs::Json doc = obs::Json::object();

  obs::Json server = obs::Json::object();
  server["max_queue"] = obs::Json(config_.max_queue);
  server["score_workers"] = obs::Json(config_.score_workers);
  server["in_flight"] = obs::Json(in_flight_.load(std::memory_order_relaxed));
  doc["server"] = std::move(server);

  obs::Json models = obs::Json::object();
  {
    const MutexLock lock(models_mutex_);
    for (const auto& [name, model] : models_) {
      Model::State state;
      {
        const MutexLock state_lock(model->mutex);
        state = model->state;
      }
      const core::ScoreCache::Stats stats = state.cache->stats();
      obs::Json cache = obs::Json::object();
      cache["capacity"] = obs::Json(state.cache->capacity());
      cache["size"] = obs::Json(state.cache->size());
      cache["hits"] = obs::Json(stats.hits);
      cache["misses"] = obs::Json(stats.misses);
      cache["evictions"] = obs::Json(stats.evictions);
      cache["collisions"] = obs::Json(stats.collisions);
      obs::Json entry = obs::Json::object();
      entry["version"] = obs::Json(state.version);
      entry["cache"] = std::move(cache);
      models[name] = std::move(entry);
    }
  }
  doc["models"] = std::move(models);

  obs::Json counters = obs::Json::object();
  for (const auto& [name, value] : registry_.counters()) {
    counters[name] = obs::Json(value);
  }
  doc["counters"] = std::move(counters);

  obs::Json histograms = obs::Json::object();
  for (const auto& [name, snap] : registry_.histograms()) {
    obs::Json entry = obs::Json::object();
    entry["count"] = obs::Json(snap.count);
    entry["sum"] = obs::Json(snap.sum);
    if (snap.count > 0) {  // min/max are infinities before the first observe
      entry["min"] = obs::Json(snap.min);
      entry["max"] = obs::Json(snap.max);
      entry["mean"] = obs::Json(snap.mean());
    }
    histograms[name] = std::move(entry);
  }
  doc["histograms"] = std::move(histograms);

  return doc.dump(0);
}

}  // namespace lhd::serve
