#pragma once
/// @file scan.hpp
/// @brief Full-chip hotspot scanning: slide a clip window over a flattened
/// layout and classify each window. Includes the two-stage flow the survey
/// highlights (cheap pattern-match prefilter proposing candidates, CNN
/// refining them) and a spatial index so window extraction is O(local).
///
/// The scan shards the window grid row-wise across a ThreadPool; shard
/// results are merged in row-major window order, so the hit list is
/// bit-identical for every thread count (ScanConfig::threads).
///
/// Every scan runs one scorer. Each window's geometry is keyed exactly
/// (data/clip_hash.hpp: the window-local rects, sorted, plus window_nm),
/// looked up in a scan-wide ScoreCache shared by all shards, and a cache
/// miss is scored by Detector::score() the moment it is found, then
/// memoized. The key is the window's own clip, so a memoized score is the
/// score of the window as it sits, for every detector: the hit list is
/// identical to scoring each window on its own (the testkit naive_scan
/// oracle) across thread counts and cache capacities. ScanConfig::dedup
/// only chooses the cache: off is a private capacity-0 cache (every window
/// scored once, in scan order), on is a memo of cache_capacity entries.
/// With dedup on, windows_classified becomes the number of *detector
/// invocations*, which a shared cache makes schedule-dependent — it is the
/// one ScanResult count that may differ run to run.
///
/// Every scan also runs one worker over placed cells. Real layouts are
/// *hierarchical* (SREF/AREF forests), so flattening pays O(flattened
/// area) before the dedup cache can rediscover the repetition
/// window-by-window. scan_library() with ScanConfig::hierarchical exploits
/// the hierarchy directly: it enumerates instance placements from the
/// structure tree (gds::Library::layer_instances, memoized per-structure
/// bboxes — the layer is never flattened), indexes each distinct cell's
/// geometry once, and keys every window by its *replay key* — the sorted
/// (cell, mirror, angle, window-minus-origin offset) tuple per overlapping
/// instance. Window content is a pure function of that key, so interior
/// windows of repeated cells replay a memoized score instead of
/// re-extracting geometry; detector work shrinks to O(distinct geometry +
/// stitch bands where instances abut or overlap). The hit list stays
/// identical to the flattened scan (asserted by the hierarchical parity
/// property). A flattened chip is the one-cell, one-placement case:
/// scan_chip* wraps its ChipIndex as that hierarchy. The placements near a
/// window come from a ChipIndex over their bboxes (query_ids). A key
/// naming a once-placed cell can never recur (that placement fixes where
/// the window sits), so such windows are never memoized: no key, no memo
/// entry, which covers every window of a flattened chip.
///
/// Thread-safety: ChipIndex is immutable after construction and all its
/// methods are const; concurrent query()/query_ids() calls are race-free
/// as long as each thread passes its own QueryScratch. Scans may run on a
/// shared pool; the detector's score()/predict() must be thread-safe (true
/// for every in-tree detector). Every scan shards the row-major window
/// grid: per-shard state (replay key scratch, per-cell QueryScratch, the
/// DedupScorer) is thread-local, while the two scan-wide memos — the
/// ScoreCache and the replay cache (committed key→score entries) — are
/// internally synchronized (lhd::Mutex + LHD_GUARDED_BY, machine-checked
/// under Clang), so shards only exchange
/// *committed* scores and the merged hit list is bit-identical for every
/// thread count. A caller-supplied ScanConfig::cache may be shared across
/// *sequential* scans (each scan reports per-scan deltas via the
/// snapshot/delta Stats API); sharing one cache between *concurrent* scans
/// is safe for results but makes the per-scan hit/miss attribution
/// approximate. Every scan records per-shard timings and window tallies
/// in ScanResult::shards and into obs::Registry::global(); the shard
/// tallies cover every window (Scan.ShardStatsCoverEveryWindow).

#include <cstdint>
#include <string>
#include <vector>

#include "lhd/core/detector.hpp"
#include "lhd/gds/model.hpp"

namespace lhd {
class ThreadPool;
}

namespace lhd::core {

class ScoreCache;

/// Bucketed spatial index over a flattened rectangle soup. Degenerate
/// (empty) input rects are dropped on construction — they cannot be
/// bucketed and contribute nothing to any window. All methods are const
/// and safe to call concurrently; per-query dedupe state lives in an
/// explicit QueryScratch owned by the caller (one per thread).
class ChipIndex {
 public:
  /// Per-caller dedupe state for query(): a stamp per rect plus the current
  /// stamp value. Reusable across queries (that is the point — it avoids a
  /// per-query O(#rects) clear); create one per thread.
  class QueryScratch {
   public:
    QueryScratch() = default;

    /// Fast-forward the stamp counter, so wrap-around behaviour is testable
    /// without issuing 2^32 queries.
    void fast_forward(std::uint32_t value) { stamp_value_ = value; }

   private:
    friend class ChipIndex;
    std::vector<std::uint32_t> stamp_;  ///< dedupe marker per rect
    std::uint32_t stamp_value_ = 0;
  };

  ChipIndex(std::vector<geom::Rect> rects, geom::Coord bucket_nm = 2048);

  const geom::Rect& extent() const { return extent_; }
  std::size_t rect_count() const { return rects_.size(); }

  /// All rects overlapping `window`, clipped and translated to window-local
  /// coordinates. Race-free: concurrent queries are fine as long as each
  /// thread passes its own scratch.
  std::vector<geom::Rect> query(const geom::Rect& window,
                                QueryScratch& scratch) const;

  /// Ids (indices into the constructor's non-degenerate rects, in input
  /// order) of the rects overlapping `window`, ascending, written to `out`
  /// (cleared first). Race-free under the same one-scratch-per-thread
  /// rule as query().
  void query_ids(const geom::Rect& window, QueryScratch& scratch,
                 std::vector<std::uint32_t>& out) const;

  /// Test-only convenience overload that allocates a fresh scratch per
  /// call. The per-query O(#rects) stamp allocation this hides is exactly
  /// what QueryScratch exists to amortize — production call sites (the
  /// scanner, the benches) must pass a reused scratch; keep this one to
  /// tests and one-off assertions.
  std::vector<geom::Rect> query(const geom::Rect& window) const;

  /// Build directly from a GDS library's flattened layer.
  static ChipIndex from_library(const gds::Library& lib,
                                const std::string& top, std::int16_t layer);

 private:
  /// The bucket walk behind query() and query_ids(): calls `visit(i)` once
  /// per rect id stored in a bucket `window` touches.
  template <typename Visit>
  void for_each_candidate(const geom::Rect& window, QueryScratch& scratch,
                          Visit&& visit) const;

  std::vector<geom::Rect> rects_;
  geom::Rect extent_;
  geom::Coord bucket_nm_;
  int bx_ = 0, by_ = 0;
  std::vector<std::vector<std::uint32_t>> buckets_;
};

struct ScanConfig {
  geom::Coord window_nm = 1024;
  geom::Coord stride_nm = 512;
  /// Scan parallelism: 1 = serial (the degenerate case), 0 = one shard per
  /// hardware thread, N = shard the window grid N ways. Results are
  /// bit-identical across thread counts.
  std::size_t threads = 1;
  /// Memoize window scores by exact geometry: classify each distinct
  /// window clip once (per cache lifetime) instead of once per occurrence.
  /// Off by default: every window is then scored on its own, through a
  /// capacity-0 cache. The hit list is the same either way.
  bool dedup = false;
  /// Total ScoreCache entry bound when dedup is on. 0 disables memoization
  /// (every window misses), which is exactly the plain scan — useful for
  /// isolating cache effects.
  std::size_t cache_capacity = 1 << 16;
  /// Scan the GDS hierarchy instead of a flattened layer: index each
  /// distinct cell once and replay memoized window scores per repeated
  /// placement (scan_library() only). scan_chip* already scans its chip as
  /// the one-placement hierarchy, whose keys never recur and are never
  /// memoized, and rejects the flag. Hit lists are identical to the
  /// flattened scan (asserted by the hierarchical parity property).
  bool hierarchical = false;
  /// Optional caller-owned ScoreCache shared across scans when dedup is on
  /// (ignored when it is off). nullptr — the default — gives each scan a
  /// private cache of cache_capacity entries. A shared cache keeps its
  /// memos across scans; each scan's ScanResult still reports *per-scan*
  /// hit/miss/eviction deltas (Stats snapshot taken at scan start). Share
  /// between sequential scans; concurrent scans stay correct but blur the
  /// per-scan attribution.
  ScoreCache* cache = nullptr;
};

struct ScanHit {
  geom::Rect window;
  float score = 0.0f;

  friend bool operator==(const ScanHit&, const ScanHit&) = default;
};

/// Per-shard accounting the scan reports alongside its results: how much
/// of the grid each shard covered and how long it spent. Shard wall times
/// are the load-balance view the aggregate `seconds` hides.
struct ShardStat {
  std::size_t windows = 0;   ///< windows this shard visited
  double seconds = 0.0;      ///< shard wall time (query + classify)
  double query_seconds = 0.0;  ///< portion spent in ChipIndex::query

  friend bool operator==(const ShardStat&, const ShardStat&) = default;
};

struct ScanResult {
  std::size_t windows_total = 0;    ///< windows visited
  /// Windows the (final) detector actually scored. With dedup on this is
  /// the number of detector invocations (unique cache misses) — the
  /// quantity dedup exists to shrink — and is schedule-dependent: two
  /// shards can race to classify the same pattern. Every other count and
  /// the hit list stay deterministic.
  std::size_t windows_classified = 0;
  std::size_t flagged = 0;
  double seconds = 0.0;
  /// Windows served from a ScoreCache memo, without a detector
  /// invocation. hits + misses == one probe per scored window (under `hierarchical`,
  /// replayed windows skip the probe, so only gathered windows count).
  /// With dedup off the cache has capacity 0, so hits are 0.
  std::uint64_t cache_hits = 0;
  /// Windows that forced a detector invocation (first occurrence of a
  /// clip, capacity-0 re-scores, hash-collision overflow).
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;  ///< ScoreCache evictions
  /// Windows served by replay (0 on a flattened scan) — an identical
  /// replay key was already memoized (shard-local or scan-wide) — so no
  /// geometry extraction, memo-key build, or detector work happened for
  /// them.
  std::uint64_t replay_hits = 0;
  /// Windows overlapping two or more instance bboxes (0 on a flattened
  /// scan) — the halo/stitch bands where instances abut or overlap loose
  /// geometry.
  /// These windows' keys repeat only if the *combination* repeats, so they
  /// bound the fresh-geometry work the hierarchy cannot elide.
  std::uint64_t stitch_windows = 0;
  /// Placements scanned and distinct structures among them (0 on a
  /// flattened scan).
  std::size_t instances = 0;
  std::size_t distinct_cells = 0;
  std::vector<ScanHit> hits;
  /// One entry per shard, in shard (row-major) order; size() is the shard
  /// count actually used. Timing fields vary run to run; window counts are
  /// deterministic.
  std::vector<ShardStat> shards;
};

/// Single-stage scan: classify every (non-empty) window. Runs on
/// ThreadPool::global() when config.threads != 1; the detector's score()
/// must be thread-safe (true for every in-tree detector). Rejects
/// config.hierarchical (a flattened ChipIndex has no hierarchy left) —
/// use scan_library() for the hierarchical path.
ScanResult scan_chip(const ChipIndex& chip, const Detector& detector,
                     const ScanConfig& config);

/// As above but on a caller-supplied pool (e.g. a dedicated scan pool).
ScanResult scan_chip(const ChipIndex& chip, const Detector& detector,
                     const ScanConfig& config, ThreadPool& pool);

/// Two-stage scan: `prefilter` proposes candidate windows (its alarms,
/// predict() on each window as it sits), `refiner` classifies only those
/// through the same memo as scan_chip. windows_classified
/// counts refiner work only.
ScanResult scan_chip_two_stage(const ChipIndex& chip,
                               const Detector& prefilter,
                               const Detector& refiner,
                               const ScanConfig& config);

ScanResult scan_chip_two_stage(const ChipIndex& chip,
                               const Detector& prefilter,
                               const Detector& refiner,
                               const ScanConfig& config, ThreadPool& pool);

/// Scan `top`'s `layer` straight from the GDS library. With
/// config.hierarchical the layer is never flattened: instances are
/// enumerated from the structure tree, each distinct cell is indexed once,
/// and per-window scores replay across repeated placements (see the @file
/// notes); windows_classified shrinks to O(distinct geometry + stitch
/// bands) detector invocations. Without the flag this is a convenience
/// wrapper over ChipIndex::from_library + scan_chip. The grid, window
/// order, and merged hit list match the flattened scan exactly.
ScanResult scan_library(const gds::Library& lib, const std::string& top,
                        std::int16_t layer, const Detector& detector,
                        const ScanConfig& config);

ScanResult scan_library(const gds::Library& lib, const std::string& top,
                        std::int16_t layer, const Detector& detector,
                        const ScanConfig& config, ThreadPool& pool);

}  // namespace lhd::core
