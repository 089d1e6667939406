#pragma once
/// @file server.hpp
/// @brief The long-lived detection daemon: a `Server` owns named detectors
/// (each bundled with its own `core::ScoreCache` and a version number),
/// answers protocol requests, and survives everything a long-lived process
/// must — malformed frames, full queues, weight reloads mid-traffic, and
/// shutdown racing in-flight work.
///
/// Admission control: work bound for the score ThreadPool (a score-clip
/// cache miss, every scan-region) passes through a bounded in-flight
/// counter first. Over capacity, the request is *rejected* with a typed
/// Status::Busy response — never queued unboundedly, never blocked, never
/// a crash. A score-clip cache hit is answered on the session thread right
/// after the probe, and cheap control ops (reload-weights, stats) run there
/// too; all of them bypass admission, so operators can always reach a
/// saturated server.
///
/// Reload contract: ReloadWeights stages the new detector all-or-nothing
/// via the model's WeightLoader (nn/serialize discipline — a bad blob
/// throws before anything is swapped), then swaps the model's
/// {detector, cache, version} snapshot atomically. In-flight requests
/// finish on the snapshot they started with; the fresh cache guarantees no
/// stale score ever crosses a version boundary.
///
/// Observability: every request updates per-tenant counters and
/// queue-depth / latency histograms in the server's own obs::Registry
/// (the stats op is a protocol feature, not telemetry). The per-op and
/// server-wide instruments are looked up once, at construction, and each
/// tenant's counters on its first request.
/// The stats op serializes the whole picture as a deterministic-order JSON
/// document.
///
/// Thread-safety: every public method is safe to call concurrently.
/// handle() is the hot path: model snapshots are shared_ptr copies taken
/// under a short mutex, per-model swaps serialize on that mutex, the
/// admission counter is a lone atomic, and a tenant's counter handles come
/// from one short-mutex map lookup.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lhd/core/cnn_detector.hpp"
#include "lhd/core/detector.hpp"
#include "lhd/core/score_cache.hpp"
#include "lhd/obs/registry.hpp"
#include "lhd/serve/protocol.hpp"
#include "lhd/serve/transport.hpp"
#include "lhd/util/thread_annotations.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::serve {

/// Builds a fresh detector from a reload blob. Must be all-or-nothing:
/// either return a fully usable detector or throw (lhd::Error) leaving no
/// trace — the server swaps nothing on a throw. Called with the model's
/// reloads serialized, but concurrently with inference on the old
/// snapshot, so it must not mutate shared state.
using WeightLoader = std::function<std::shared_ptr<const core::Detector>(
    const std::vector<std::uint8_t>& weights)>;

/// WeightLoader for CNN models: each reload builds a fresh CnnDetector
/// from `config` (architecture is fixed by config, weights come from the
/// blob) and loads it via nn::load_weights — the staged all-or-nothing
/// loader, so a corrupt blob throws before any detector exists and the
/// served snapshot is untouched.
WeightLoader cnn_weight_loader(std::string name,
                               core::CnnDetectorConfig config = {});

struct ServerConfig {
  /// Worker threads executing score-clip misses and scan-region work.
  std::size_t score_workers = 2;
  /// Admission bound: max pool-bound requests in flight (queued +
  /// running) across all sessions before new ones get Status::Busy.
  std::size_t max_queue = 32;
  /// Session threads backing attach()ed transports. serve() on a caller
  /// thread does not consume one.
  std::size_t session_workers = 4;
  /// Per-model ScoreCache geometry (fresh cache per weight version).
  std::size_t cache_capacity = 1 << 12;
  std::size_t cache_shards = 16;
  /// Server-side DoS cap: scan-region requests whose window grid exceeds
  /// this many windows are answered with a typed error, not scanned.
  std::size_t max_scan_windows = 1 << 14;
  /// Second scan cap: the region's bounding box must fit in this many nm
  /// per axis. Checked (in 64-bit, overflow-proof) *before* the spatial
  /// index allocates its bucket grid, so a request with two far-apart
  /// rects cannot allocate an extent-sized grid. 2^20 nm ≈ 1 mm — roomy
  /// for the interactive region checks the op exists for.
  std::int64_t max_scan_extent_nm = 1 << 20;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  /// Calls stop(); attached sessions are interrupted and joined.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register a detector under `name` (version 1). The first model added
  /// is the default an empty request model name resolves to. `loader`
  /// may be null: the model then rejects reload-weights with a typed
  /// error. Adding a name twice is an error (reload, don't re-add).
  void add_model(const std::string& name,
                 std::shared_ptr<const core::Detector> detector,
                 WeightLoader loader = nullptr);

  /// Current weight version of `name` (1 until the first reload).
  std::uint64_t model_version(const std::string& name) const;

  /// Answer one request in-process — the core the transports wrap, and the
  /// entry point tests and the fuzz harness drive directly. Never throws
  /// for request-level problems (unknown model, bad geometry, rejected
  /// weights, saturated queue — all typed responses).
  Response handle(const Request& request);

  /// Blocking session loop on the caller's thread: decode frames from
  /// `transport` until clean EOF or an unrecoverable wire error,
  /// answering each. Recoverable wire errors (bad payload inside an
  /// intact frame) get a Status::Error answer and the session continues.
  void serve(Transport& transport);

  /// Run serve(*transport) on an internal session worker; returns
  /// immediately. The server keeps the transport alive and interrupts it
  /// on stop().
  void attach(std::shared_ptr<Transport> transport);

  /// Interrupt attached transports, drain sessions, and stop the worker
  /// pools. Idempotent; safe to call concurrently with traffic — racing
  /// scoring requests are answered (Ok or a typed shutdown error), never
  /// crashed into.
  void stop();

  /// The stats op's payload: deterministic-order JSON over models
  /// (version + cache stats), request totals, per-tenant counters, and
  /// queue/latency histograms.
  std::string stats_json() const;

  /// The server's private instrument registry (tests assert against it).
  obs::Registry& registry() { return registry_; }

  const ServerConfig& config() const { return config_; }

 private:
  /// One registered model: immutable identity + loader, mutable
  /// {detector, cache, version} snapshot swapped on reload.
  struct Model {
    /// Everything a request needs, bundled so it travels as one atomic
    /// snapshot: scores cached in `cache` are valid exactly for
    /// `detector`'s weights.
    struct State {
      std::shared_ptr<const core::Detector> detector;
      std::shared_ptr<core::ScoreCache> cache;
      std::uint64_t version = 1;
    };

    WeightLoader loader;  ///< immutable after add_model
    mutable Mutex mutex;
    State state LHD_GUARDED_BY(mutex);
    /// Serializes loader invocations (reloads), NOT state reads — staging
    /// new weights can be slow and must not block inference snapshots.
    Mutex reload_mutex LHD_ACQUIRED_BEFORE(mutex);
  };

  /// One tenant's `serve.tenant.<id>.*` counters, registered together on
  /// its first request.
  struct TenantCounters {
    obs::Counter& requests;
    obs::Counter& admitted;
    obs::Counter& busy;
    obs::Counter& errors;
    obs::Counter& cache_hits;
    obs::Counter& cache_misses;
  };

  /// One op's `serve.op.<name>.*` instruments.
  struct OpInstruments {
    obs::Counter& requests;
    obs::Histogram& latency_seconds;
  };

  /// Snapshot lookup; throws lhd::Error for unknown names.
  Model::State snapshot(const std::string& name) const;
  Model& find_model(const std::string& name) const;

  TenantCounters& tenant_counters(std::uint32_t tenant);

  /// Validation, snapshot and cache probe on the calling thread; only a
  /// miss goes through admit_and_run to be scored on the pool.
  Response do_score(TenantCounters& tenant, const ScoreClip& req);
  Response do_scan(TenantCounters& tenant, const ScanRegion& req);
  Response do_reload(const ReloadWeights& req);

  /// Admission + pool dispatch for the work that needs a score worker.
  Response admit_and_run(Op op, TenantCounters& tenant,
                         const std::function<Response()>& work);

  ServerConfig config_;
  /// Declared ahead of the handles below, which point into it.
  mutable obs::Registry registry_;
  std::vector<OpInstruments> ops_;  ///< indexed by Op, built once
  obs::Counter& responses_ok_;
  obs::Counter& responses_busy_;
  obs::Counter& responses_error_;
  obs::Histogram& latency_seconds_;
  obs::Histogram& queue_depth_;

  Mutex tenants_mutex_;
  /// Map nodes are stable and never erased, so a handed-out reference
  /// outlives the lock.
  std::map<std::uint32_t, TenantCounters> tenants_
      LHD_GUARDED_BY(tenants_mutex_);

  mutable Mutex models_mutex_;
  /// name -> model; unique_ptr so references stay stable across inserts.
  std::map<std::string, std::unique_ptr<Model>> models_
      LHD_GUARDED_BY(models_mutex_);
  std::string default_model_ LHD_GUARDED_BY(models_mutex_);

  std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> stopping_{false};

  mutable Mutex sessions_mutex_;
  std::vector<std::shared_ptr<Transport>> attached_
      LHD_GUARDED_BY(sessions_mutex_);

  /// Order matters for destruction: session loops reference score_pool_
  /// through `this`, so sessions_ must be declared after (destroyed
  /// before) score_pool_ — and stop() tears down in that order explicitly.
  std::unique_ptr<ThreadPool> score_pool_;
  std::unique_ptr<ThreadPool> sessions_;
};

}  // namespace lhd::serve
