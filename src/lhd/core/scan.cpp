#include "lhd/core/scan.hpp"

#include <algorithm>
#include <compare>
#include <functional>
#include <optional>
#include <unordered_map>

#include "lhd/core/score_cache.hpp"
#include "lhd/data/clip_hash.hpp"
#include "lhd/obs/registry.hpp"
#include "lhd/obs/timer.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/stopwatch.hpp"
#include "lhd/util/thread_annotations.hpp"
#include "lhd/util/thread_pool.hpp"

namespace lhd::core {

namespace {

/// Bucket index of coordinate `v` in a grid of `bucket_nm`-wide buckets
/// starting at `origin`, for ChipIndex and InstanceGrid alike. The offset
/// is taken in int64: coordinates span ±2^30, so `v - origin` reaches 2^31
/// and overflows a Coord. The division rounds toward negative infinity, so
/// a window starting left of / below the grid maps to a negative bucket
/// the caller clamps away rather than truncating up to bucket 0.
std::int64_t bucket_of(geom::Coord v, geom::Coord origin,
                       geom::Coord bucket_nm) {
  const std::int64_t d = std::int64_t{v} - origin;
  return d >= 0 ? d / bucket_nm : -((-d + bucket_nm - 1) / bucket_nm);
}

/// Inclusive bucket range [x0, x1] x [y0, y1] of the cells `r` touches in
/// a bx x by grid over `extent`, clamped to the grid (possibly empty).
struct BucketRange {
  int x0 = 0, y0 = 0, x1 = -1, y1 = -1;
};

BucketRange bucket_range(const geom::Rect& r, const geom::Rect& extent,
                         geom::Coord bucket_nm, int bx, int by) {
  const auto first = [&](geom::Coord v, geom::Coord origin, int n) {
    return static_cast<int>(
        std::clamp<std::int64_t>(bucket_of(v, origin, bucket_nm), 0, n));
  };
  const auto last = [&](geom::Coord v, geom::Coord origin, int n) {
    return static_cast<int>(
        std::clamp<std::int64_t>(bucket_of(v, origin, bucket_nm), -1, n - 1));
  };
  return {first(r.xlo, extent.xlo, bx), first(r.ylo, extent.ylo, by),
          last(r.xhi - 1, extent.xlo, bx), last(r.yhi - 1, extent.ylo, by)};
}

/// Bucket count along one axis of a non-empty extent [lo, hi).
int bucket_count(geom::Coord lo, geom::Coord hi, geom::Coord bucket_nm) {
  return static_cast<int>(bucket_of(hi - 1, lo, bucket_nm) + 1);
}

}  // namespace

ChipIndex::ChipIndex(std::vector<geom::Rect> rects, geom::Coord bucket_nm)
    : rects_(std::move(rects)), bucket_nm_(bucket_nm) {
  LHD_CHECK(bucket_nm_ > 0, "bucket size must be positive");
  // Degenerate rects would mis-index: (xhi - 1) lands left of xlo, so they
  // never reach a bucket yet would still count in rect_count() and size the
  // stamp array. They cannot affect any query — drop them up front.
  std::erase_if(rects_, [](const geom::Rect& r) { return r.empty(); });
  extent_ = geom::Rect{};
  for (const auto& r : rects_) extent_ = extent_.unite(r);
  if (rects_.empty()) {
    bx_ = by_ = 1;
    buckets_.resize(1);
    return;
  }
  bx_ = bucket_count(extent_.xlo, extent_.xhi, bucket_nm_);
  by_ = bucket_count(extent_.ylo, extent_.yhi, bucket_nm_);
  buckets_.assign(static_cast<std::size_t>(bx_) * by_, {});
  for (std::uint32_t i = 0; i < rects_.size(); ++i) {
    const BucketRange b =
        bucket_range(rects_[i], extent_, bucket_nm_, bx_, by_);
    for (int by = b.y0; by <= b.y1; ++by) {
      for (int bx = b.x0; bx <= b.x1; ++bx) {
        buckets_[static_cast<std::size_t>(by) * bx_ + bx].push_back(i);
      }
    }
  }
}

std::vector<geom::Rect> ChipIndex::query(const geom::Rect& window,
                                         QueryScratch& scratch) const {
  std::vector<geom::Rect> out;
  if (rects_.empty()) return out;
  if (!window.overlaps(extent_)) return out;
  if (scratch.stamp_.size() != rects_.size()) {
    scratch.stamp_.assign(rects_.size(), 0);
    scratch.stamp_value_ = 0;
  }
  if (++scratch.stamp_value_ == 0) {
    // Wrapped after 2^32 queries: stamps from the previous epoch would
    // collide with reused values and silently drop rects. Reset.
    std::fill(scratch.stamp_.begin(), scratch.stamp_.end(), 0);
    scratch.stamp_value_ = 1;
  }
  const BucketRange b = bucket_range(window, extent_, bucket_nm_, bx_, by_);
  for (int by = b.y0; by <= b.y1; ++by) {
    for (int bx = b.x0; bx <= b.x1; ++bx) {
      for (const std::uint32_t i :
           buckets_[static_cast<std::size_t>(by) * bx_ + bx]) {
        if (scratch.stamp_[i] == scratch.stamp_value_) continue;
        scratch.stamp_[i] = scratch.stamp_value_;
        const geom::Rect c = rects_[i].intersect(window);
        if (!c.empty()) out.push_back(c.shifted(-window.xlo, -window.ylo));
      }
    }
  }
  return out;
}

std::vector<geom::Rect> ChipIndex::query(const geom::Rect& window) const {
  QueryScratch scratch;
  return query(window, scratch);
}

ChipIndex ChipIndex::from_library(const gds::Library& lib,
                                  const std::string& top,
                                  std::int16_t layer) {
  return ChipIndex(lib.flatten_layer(top, layer));
}

namespace {

/// Counters and hits gathered by one shard of the window grid. Timing
/// accumulates into plain doubles (obs::ScopedTimer accumulator mode), so
/// instrumenting the hot loop adds no cross-shard contention; totals are
/// flushed to the global registry once, after the shards join.
struct ShardAccum {
  std::size_t windows_total = 0;
  std::size_t windows_classified = 0;
  std::size_t flagged = 0;
  /// Windows served by a pattern still pending in the same batch. Their
  /// ScoreCache probe counted as a miss (the memo was in flight, not
  /// committed), but no detector invocation happened — grid_scan
  /// reclassifies them as hits.
  std::size_t batch_alias_hits = 0;
  /// Windows replayed from a memoized key (no geometry extraction) and
  /// windows straddling >= 2 instance bboxes; 0 on a flattened scan.
  std::uint64_t replay_hits = 0;
  std::uint64_t stitch_windows = 0;
  std::vector<ScanHit> hits;
  double seconds = 0.0;        ///< shard wall time
  double query_seconds = 0.0;  ///< time inside ChipIndex::query
};

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return hardware_threads();
}

data::Clip make_clip(std::vector<geom::Rect> rects, geom::Coord window_nm) {
  data::Clip clip;
  clip.rects = std::move(rects);
  clip.window_nm = window_nm;
  return clip;
}

/// The one scorer behind every scan. Each shard hands it windows in scan
/// order; it keys each window by its exact memo key (the window-local
/// rects, sorted, plus window_nm — data/clip_hash.hpp), resolves a key
/// already memoized in the scan-wide ScoreCache (by any shard) at once, and
/// accumulates cache misses until `batch` of them are scored together via
/// Detector::score_batch(). The key holds the window's geometry exactly, so
/// the memoized score is the score of the window as it sits: dedup changes
/// the cost of a scan, never its answer. Hits are emitted strictly in
/// enqueue (row-major) order, as soon as nothing before them is pending.
///
/// The plain scan is the degenerate configuration: a capacity-0 cache and
/// a batch of 1 score every window on its own, the moment it arrives. An
/// optional prefilter makes the scan two-stage: window() drops every
/// window the prefilter does not predict as a hotspot before keying it.
///
/// The hierarchical scan layers its replay memo on top: a window enqueued
/// with a `tag` fires `hook(tag, score)` the moment its score is known
/// (immediately on a cache hit, otherwise when its batch is scored);
/// windows whose score was replayed bypass enqueue entirely via
/// push_resolved(), and windows whose pattern is still *pending* alias it
/// via repeat() — both still append a slot, so emission keeps the strict
/// scan order.
class DedupScorer {
 public:
  using ResolveHook = std::function<void(std::size_t tag, float score)>;
  /// Tag meaning "no commit callback wanted" — the flattened scan's case.
  static constexpr std::size_t kNoTag = static_cast<std::size_t>(-1);

  /// Names a pattern still pending in the current batch. enqueue() hands
  /// one out; repeat() aliases another window to it without recomputing
  /// the content. Scoring the batch invalidates every outstanding ref
  /// (the generation bumps), after which repeat() declines.
  struct PendingRef {
    std::uint64_t generation = 0;
    std::size_t index = 0;
  };

  DedupScorer(const Detector* prefilter, const Detector& det,
              ScoreCache& cache, ShardAccum& acc, geom::Coord window_nm,
              std::size_t batch, ResolveHook hook = {})
      : prefilter_(prefilter),
        det_(det),
        cache_(cache),
        acc_(acc),
        window_nm_(window_nm),
        threshold_(det.threshold()),
        batch_(std::max<std::size_t>(1, batch)),
        hook_(std::move(hook)) {}

  /// The flattened scan's entry: run the prefilter (if any) on the window
  /// as it sits, then enqueue the survivors. The prefilter is the cheap
  /// stage, so it stays uncached: memoizing it would cost more than it
  /// saves.
  void window(const geom::Rect& w, std::vector<geom::Rect> rects) {
    if (prefilter_ != nullptr) {
      data::Clip clip = make_clip(std::move(rects), window_nm_);
      if (!prefilter_->predict(clip)) return;  // stage 1 rejects
      rects = std::move(clip.rects);
    }
    enqueue(w, std::move(rects));
  }

  /// Returns a ref naming the pattern if it is (still) pending after this
  /// call, std::nullopt if the window resolved immediately (cache hit) or
  /// the enqueue filled the batch and scored it.
  std::optional<PendingRef> enqueue(const geom::Rect& window,
                                    std::vector<geom::Rect> rects,
                                    std::size_t tag = kNoTag) {
    data::CanonicalClip canon =
        data::canonical_clip(std::move(rects), window_nm_);
    const std::uint64_t hash = data::canonical_hash(canon);
    if (const auto cached = cache_.lookup(canon, hash)) {
      if (hook_ && tag != kNoTag) hook_(tag, *cached);
      push_resolved(window, *cached);
      return std::nullopt;
    }
    // Intra-batch dedup: a pattern already pending in this batch is scored
    // once and later occurrences alias its slot. On a 64-bit collision
    // with a *different* pending pattern, score separately (correct,
    // merely redundant); the map keeps pointing at the first owner.
    std::size_t index = pending_.size();
    const auto it = pending_by_hash_.find(hash);
    if (it != pending_by_hash_.end() &&
        pending_[it->second].canon == canon) {
      index = it->second;
      ++acc_.batch_alias_hits;
    } else {
      if (it == pending_by_hash_.end()) pending_by_hash_.emplace(hash, index);
      pending_.push_back({std::move(canon), hash});
    }
    slots_.push_back({window, 0.0f, static_cast<std::ptrdiff_t>(index), tag});
    if (pending_.size() >= batch_) {
      score_pending();
      return std::nullopt;
    }
    return PendingRef{generation_, index};
  }

  /// Alias `window` to a pattern a previous enqueue() left pending, without
  /// recomputing or even possessing its content. Declines (returns false)
  /// when the ref's batch has already been scored — the caller falls back
  /// to the content path (and will then hit the committed memo).
  bool repeat(const geom::Rect& window, const PendingRef& ref) {
    if (ref.generation != generation_) return false;
    slots_.push_back(
        {window, 0.0f, static_cast<std::ptrdiff_t>(ref.index), kNoTag});
    return true;
  }

  /// Append a window whose score is already known (a replayed memo). No
  /// cache probe, no detector work — just a slot, so the hit list stays in
  /// scan order.
  void push_resolved(const geom::Rect& window, float score) {
    slots_.push_back({window, score, kResolved, kNoTag});
    emit_if_resolved();
  }

  /// Score whatever is still pending and emit the remaining slots.
  void finish() { score_pending(); }

 private:
  static constexpr std::ptrdiff_t kResolved = -1;

  struct Slot {
    geom::Rect window;
    float score = 0.0f;
    std::ptrdiff_t pending = kResolved;  ///< index into the current batch
    std::size_t tag = kNoTag;            ///< hook payload, kNoTag = none
  };
  struct Pending {
    data::CanonicalClip canon;
    std::uint64_t hash = 0;
  };

  /// With nothing pending every slot is resolved: emit them in order and
  /// drop them, so the slots never reach back past the current batch.
  void emit_if_resolved() {
    if (!pending_.empty()) return;
    for (const Slot& slot : slots_) {
      if (slot.score > threshold_) {
        ++acc_.flagged;
        acc_.hits.push_back({slot.window, slot.score});
      }
    }
    slots_.clear();
  }

  void score_pending() {
    if (pending_.empty()) return;
    std::vector<data::Clip> clips;
    clips.reserve(pending_.size());
    for (const Pending& p : pending_) {
      clips.push_back(make_clip(p.canon.rects, window_nm_));
    }
    // By the Detector contract the batched scores are bit-identical to
    // per-sample score(), so the batch size never changes the numbers.
    const std::vector<float> scores = det_.score_batch(clips);
    LHD_CHECK(scores.size() == clips.size(), "score_batch size mismatch");
    acc_.windows_classified += pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      cache_.insert(pending_[i].canon, pending_[i].hash, scores[i]);
    }
    // Every unresolved slot references the batch just scored: slots of
    // earlier batches were emitted when those batches resolved.
    for (Slot& slot : slots_) {
      if (slot.pending == kResolved) continue;
      slot.score = scores[static_cast<std::size_t>(slot.pending)];
      slot.pending = kResolved;
      if (hook_ && slot.tag != kNoTag) hook_(slot.tag, slot.score);
    }
    pending_.clear();
    pending_by_hash_.clear();
    ++generation_;  // outstanding PendingRefs are now stale
    emit_if_resolved();
  }

  const Detector* prefilter_;
  const Detector& det_;
  ScoreCache& cache_;
  ShardAccum& acc_;
  geom::Coord window_nm_;
  float threshold_;
  std::size_t batch_;
  ResolveHook hook_;
  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  std::vector<Pending> pending_;
  std::unordered_map<std::uint64_t, std::size_t> pending_by_hash_;
};

/// Shared scan skeleton: set up the scan's ScoreCache and batch size,
/// enumerate the window grid over `extent`, shard it row-wise, hand every
/// window to a per-shard worker built by `make_worker(accum, cache, batch)`
/// (flushed at shard end), and merge shards in row-major order so results
/// match the serial scan bit for bit. Rows are split *evenly*: with R rows
/// over S shards the first R%S shards take one extra row, so every shard
/// covers a non-empty contiguous ascending range and shards.size() is the
/// shard count actually used.
///
/// The cache set-up is the same for every scan. Dedup on uses the
/// caller-shared ScanConfig::cache or a private one of cache_capacity
/// entries, with ScanConfig::batch. Dedup off is the degenerate case: a
/// private capacity-0 cache that memoizes nothing and a batch of 1, so
/// every window reaches the detector on its own, in scan order.
template <typename MakeWorker>
ScanResult grid_scan(const geom::Rect& extent, const ScanConfig& config,
                     ThreadPool& pool, const MakeWorker& make_worker) {
  LHD_CHECK(config.window_nm > 0 && config.stride_nm > 0, "bad scan config");
  ScanResult result;
  Stopwatch sw;
  std::optional<ScoreCache> owned;
  ScoreCache& cache = !config.dedup            ? owned.emplace(0)
                      : config.cache != nullptr ? *config.cache
                                  : owned.emplace(config.cache_capacity);
  const std::size_t batch = config.dedup ? config.batch : 1;
  // A cache shared across scans keeps cumulative totals: report this
  // scan's delta, not cache.stats() (the two-scans-one-cache regression).
  const ScoreCache::Stats before = cache.stats();
  std::vector<geom::Coord> row_ys;
  for (geom::Coord y = extent.ylo; y < extent.yhi; y += config.stride_nm) {
    row_ys.push_back(y);
  }

  const auto scan_rows = [&](std::size_t lo, std::size_t hi,
                             ShardAccum& acc) {
    obs::ScopedTimer shard_timer(acc.seconds);
    auto worker = make_worker(acc, cache, batch);
    for (std::size_t r = lo; r < hi; ++r) {
      const geom::Coord y = row_ys[r];
      for (geom::Coord x = extent.xlo; x < extent.xhi;
           x += config.stride_nm) {
        worker.window(geom::Rect(x, y, x + config.window_nm,
                                 y + config.window_nm));
      }
    }
    worker.flush();
  };

  const std::size_t shards =
      std::min(resolve_threads(config.threads),
               std::max<std::size_t>(row_ys.size(), 1));
  std::vector<ShardAccum> accums(shards);
  if (shards <= 1) {
    scan_rows(0, row_ys.size(), accums[0]);
  } else {
    const std::size_t base = row_ys.size() / shards;
    const std::size_t rem = row_ys.size() % shards;
    pool.parallel_for(0, shards, [&](std::size_t s) {
      const std::size_t lo = s * base + std::min(s, rem);
      const std::size_t hi = lo + base + (s < rem ? 1 : 0);
      scan_rows(lo, hi, accums[s]);
    });
  }
  std::uint64_t alias_hits = 0;
  for (const auto& acc : accums) {
    result.windows_total += acc.windows_total;
    result.windows_classified += acc.windows_classified;
    result.flagged += acc.flagged;
    result.replay_hits += acc.replay_hits;
    result.stitch_windows += acc.stitch_windows;
    alias_hits += acc.batch_alias_hits;
    result.hits.insert(result.hits.end(), acc.hits.begin(), acc.hits.end());
    result.shards.push_back(
        {acc.windows_total, acc.seconds, acc.query_seconds});
  }
  // Intra-batch duplicates probed the cache before their pattern's memo
  // was committed but were served without a detector invocation, which is
  // what the hit/miss split reports; the hit+miss total is conserved.
  const ScoreCache::Stats stats = cache.stats() - before;
  result.cache_hits = stats.hits + alias_hits;
  result.cache_misses = stats.misses - alias_hits;
  result.cache_evictions = stats.evictions;
  result.seconds = sw.seconds();
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.add("scan.runs");
    reg.add("scan.windows_total", result.windows_total);
    reg.add("scan.windows_classified", result.windows_classified);
    reg.add("scan.flagged", result.flagged);
    reg.add("scan.cache.hits", result.cache_hits);
    reg.add("scan.cache.misses", result.cache_misses);
    reg.add("scan.cache.evictions", result.cache_evictions);
    reg.observe("scan.seconds", result.seconds);
    if (result.seconds > 0.0) {
      reg.observe("scan.windows_per_sec",
                  static_cast<double>(result.windows_total) / result.seconds);
    }
    for (const auto& shard : result.shards) {
      reg.observe("scan.shard_seconds", shard.seconds);
      reg.observe("scan.shard_query_seconds", shard.query_seconds);
    }
  }
  return result;
}

/// grid_scan worker for the flattened path: query the ChipIndex per
/// window, apply skip_empty, and hand non-empty windows to the scorer.
struct FlatWorker {
  const ChipIndex& chip;
  bool skip_empty = true;
  ShardAccum& acc;
  DedupScorer scorer;
  ChipIndex::QueryScratch scratch;

  void window(const geom::Rect& w) {
    ++acc.windows_total;
    std::vector<geom::Rect> rects;
    {
      obs::ScopedTimer query_timer(acc.query_seconds);
      rects = chip.query(w, scratch);
    }
    if (skip_empty && rects.empty()) return;
    scorer.window(w, std::move(rects));
  }
  void flush() { scorer.finish(); }
};

/// scan_chip and scan_chip_two_stage: `prefilter` is null for the
/// single-stage scan.
ScanResult scan_flat(const ChipIndex& chip, const Detector* prefilter,
                     const Detector& detector, const ScanConfig& config,
                     ThreadPool& pool) {
  LHD_CHECK(!config.hierarchical,
            "scan_chip scans a flattened index; the hierarchical path needs "
            "the GDS structure tree - call scan_library()");
  return grid_scan(
      chip.extent(), config, pool,
      [&](ShardAccum& acc, ScoreCache& cache, std::size_t batch) {
        return FlatWorker{chip, config.skip_empty, acc,
                          DedupScorer(prefilter, detector, cache, acc,
                                      config.window_nm, batch),
                          ChipIndex::QueryScratch{}};
      });
}

// ---------------------------------------------------------------------------
// Hierarchical scan: index each distinct cell once, replay per instance.
// ---------------------------------------------------------------------------

/// One overlapping instance's contribution to a window's identity: which
/// cell, its orientation, and the window's offset from the instance origin
/// (dx = window.xlo - origin.x, in int64 — origins can sit anywhere in the
/// coordinate range). Window content is a pure function of the *sorted*
/// set of these parts: the geometry a visit contributes to the window is
/// R(cell rects) ∩ ([dx, dx+w) × [dy, dy+w)) translated to window-local
/// coordinates, which mentions nothing but the part's fields.
struct VisitKeyPart {
  std::uint32_t cell = 0;
  std::uint8_t mirror = 0;
  std::uint16_t angle = 0;
  std::int64_t dx = 0;
  std::int64_t dy = 0;

  friend bool operator==(const VisitKeyPart&, const VisitKeyPart&) = default;
  friend auto operator<=>(const VisitKeyPart&,
                          const VisitKeyPart&) = default;
};

/// Sorted parts, one per instance whose geometry bbox overlaps the window.
/// Duplicate parts are kept: two coincident placements of the same cell
/// double the geometry, exactly as flattening would.
using ReplayKey = std::vector<VisitKeyPart>;

struct ReplayKeyHash {
  std::size_t operator()(const ReplayKey& key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;  // splitmix64-style combine
    const auto mix = [&h](std::uint64_t v) {
      v += 0x9e3779b97f4a7c15ULL + h;
      v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
      v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
      h = v ^ (v >> 31);
    };
    for (const VisitKeyPart& p : key) {
      mix(std::uint64_t{p.cell} | (std::uint64_t{p.mirror} << 32) |
          (std::uint64_t{p.angle} << 40));
      mix(static_cast<std::uint64_t>(p.dx));
      mix(static_cast<std::uint64_t>(p.dy));
    }
    return static_cast<std::size_t>(h);
  }
};

/// A committed window outcome: either "no geometry in the window" (the
/// skip_empty skip, memoized so repeated offsets skip the cell queries
/// too) or a final score.
struct ReplayEntry {
  bool empty_content = false;
  float score = 0.0f;
};

/// Scan-wide memo of *committed* window outcomes by replay key, shared by
/// every shard. Only resolved scores are published (pending batch entries
/// stay shard-local), so readers never see a placeholder; since a key's
/// score is a pure function of the key, racing writers are idempotent.
/// Entry count is bounded as a backstop: a chip whose every window has a
/// unique key (no repetition to exploit) stops being memoized past the
/// cap instead of growing O(windows) state — lookups stay correct.
class ReplayCache {
 public:
  std::optional<ReplayEntry> lookup(const ReplayKey& key) const {
    const MutexLock lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  void insert(const ReplayKey& key, const ReplayEntry& entry) {
    const MutexLock lock(mutex_);
    if (map_.size() >= kMaxEntries) return;
    map_.emplace(key, entry);
  }

 private:
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 20;

  mutable Mutex mutex_;
  std::unordered_map<ReplayKey, ReplayEntry, ReplayKeyHash> map_
      LHD_GUARDED_BY(mutex_);
};

/// One placement of a distinct cell, with both directions of the
/// transform precomputed and the top-frame bbox of the cell's own
/// geometry (degenerate rects already dropped by the cell's ChipIndex).
struct Visit {
  std::uint32_t cell = 0;
  gds::Transform to_top;
  gds::Transform to_local;  ///< to_top.inverse(), computed once
  geom::Rect bbox;
};

/// Uniform bucket grid over visit bboxes: which instances can contribute
/// geometry to a window. Same shape as ChipIndex's grid but yields visit
/// ids (exact bbox-overlap filtered) instead of clipped rects. Immutable
/// after construction; concurrent query() needs a Scratch per thread.
class InstanceGrid {
 public:
  struct Scratch {
    std::vector<std::uint32_t> stamp;
    std::uint32_t value = 0;
  };

  InstanceGrid(const std::vector<Visit>& visits, const geom::Rect& extent,
               geom::Coord bucket_nm)
      : extent_(extent), bucket_nm_(bucket_nm), count_(visits.size()) {
    LHD_CHECK(bucket_nm_ > 0, "bucket size must be positive");
    bboxes_.reserve(visits.size());
    for (const Visit& v : visits) bboxes_.push_back(v.bbox);
    if (visits.empty() || extent_.empty()) {
      bx_ = by_ = 1;
      buckets_.resize(1);
      return;
    }
    bx_ = bucket_count(extent_.xlo, extent_.xhi, bucket_nm_);
    by_ = bucket_count(extent_.ylo, extent_.yhi, bucket_nm_);
    buckets_.assign(static_cast<std::size_t>(bx_) * static_cast<std::size_t>(by_), {});
    for (std::uint32_t i = 0; i < visits.size(); ++i) {
      if (bboxes_[i].empty()) continue;
      const BucketRange b =
          bucket_range(bboxes_[i], extent_, bucket_nm_, bx_, by_);
      for (int by = b.y0; by <= b.y1; ++by) {
        for (int bx = b.x0; bx <= b.x1; ++bx) {
          buckets_[static_cast<std::size_t>(by) * static_cast<std::size_t>(bx_) +
                   static_cast<std::size_t>(bx)]
              .push_back(i);
        }
      }
    }
  }

  /// Ids of visits whose bbox overlaps `window`, ascending, appended to
  /// `out` (cleared first). Race-free with one Scratch per thread.
  void query(const geom::Rect& window, Scratch& scratch,
             std::vector<std::uint32_t>& out) const {
    out.clear();
    if (count_ == 0 || !window.overlaps(extent_)) return;
    if (scratch.stamp.size() != count_) {
      scratch.stamp.assign(count_, 0);
      scratch.value = 0;
    }
    if (++scratch.value == 0) {
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
      scratch.value = 1;
    }
    const BucketRange b = bucket_range(window, extent_, bucket_nm_, bx_, by_);
    for (int by = b.y0; by <= b.y1; ++by) {
      for (int bx = b.x0; bx <= b.x1; ++bx) {
        for (const std::uint32_t i :
             buckets_[static_cast<std::size_t>(by) *
                          static_cast<std::size_t>(bx_) +
                      static_cast<std::size_t>(bx)]) {
          if (scratch.stamp[i] == scratch.value) continue;
          scratch.stamp[i] = scratch.value;
          if (bboxes_[i].overlaps(window)) out.push_back(i);
        }
      }
    }
    std::sort(out.begin(), out.end());
  }

 private:
  geom::Rect extent_;
  geom::Coord bucket_nm_ = 0;
  std::size_t count_ = 0;
  int bx_ = 1, by_ = 1;
  std::vector<geom::Rect> bboxes_;
  std::vector<std::vector<std::uint32_t>> buckets_;
};

/// grid_scan worker for the hierarchical path. Per window: gather the
/// overlapping visits, build the replay key, and serve the window from
/// (in order) the shard-local memo, the shared ReplayCache, or the content
/// path — inverse-transform the window into each visit's cell frame, query
/// that cell's ChipIndex, map the clipped rects back, and hand the content
/// to the DedupScorer (ScoreCache dedup + batched detector). Resolved
/// scores are committed back to both memos via the scorer's hook, so every
/// later window with the same key — any shard — replays without touching
/// geometry. Not movable: the hook lambda captures `this`.
class HierWorker {
 public:
  HierWorker(const std::vector<ChipIndex>& cells,
             const std::vector<Visit>& visits, const InstanceGrid& grid,
             ReplayCache& replay, const Detector& det, ScoreCache& cache,
             std::size_t batch, ShardAccum& acc, const ScanConfig& config)
      : cells_(cells),
        visits_(visits),
        grid_(grid),
        replay_(replay),
        acc_(acc),
        skip_empty_(config.skip_empty),
        scorer_(nullptr, det, cache, acc, config.window_nm, batch,
                [this](std::size_t tag, float score) {
                  commit_entry(pending_keys_[tag], {false, score});
                  pending_refs_.erase(pending_keys_[tag]);
                }),
        cell_scratch_(cells.size()) {}

  HierWorker(const HierWorker&) = delete;
  HierWorker& operator=(const HierWorker&) = delete;

  void window(const geom::Rect& w) {
    ++acc_.windows_total;
    {
      obs::ScopedTimer query_timer(acc_.query_seconds);
      grid_.query(w, grid_scratch_, ids_);
    }
    key_.clear();
    for (const std::uint32_t id : ids_) {
      const Visit& v = visits_[id];
      VisitKeyPart part;
      part.cell = v.cell;
      part.mirror = static_cast<std::uint8_t>(v.to_top.mirror_x ? 1 : 0);
      part.angle = static_cast<std::uint16_t>(v.to_top.angle_deg);
      part.dx = static_cast<std::int64_t>(w.xlo) - v.to_top.origin.x;
      part.dy = static_cast<std::int64_t>(w.ylo) - v.to_top.origin.y;
      key_.push_back(part);
    }
    std::sort(key_.begin(), key_.end());
    if (key_.size() >= 2) ++acc_.stitch_windows;
    // No instance near the window: the flattened query would be empty.
    if (key_.empty() && skip_empty_) return;
    if (const auto it = local_.find(key_); it != local_.end()) {
      ++acc_.replay_hits;
      emit(w, it->second);
      return;
    }
    if (const auto shared = replay_.lookup(key_)) {
      ++acc_.replay_hits;
      local_.emplace(key_, *shared);
      emit(w, *shared);
      return;
    }
    // The key's first occurrence may still be pending in the current
    // batch: alias this window to its slot instead of re-gathering the
    // geometry. A stale ref (batch already scored) falls through — the
    // score was committed by the hook, so local_ serves the next repeat.
    if (const auto it = pending_refs_.find(key_); it != pending_refs_.end()) {
      if (scorer_.repeat(w, it->second)) {
        ++acc_.replay_hits;
        return;
      }
      pending_refs_.erase(it);
    }
    std::vector<geom::Rect> rects = gather(w);
    if (skip_empty_ && rects.empty()) {
      // Bboxes overlapped but no actual geometry landed in the window —
      // the flattened scan skips it; memoize the skip for this key.
      commit_entry(key_, {true, 0.0f});
      return;
    }
    pending_keys_.push_back(key_);
    if (const auto ref =
            scorer_.enqueue(w, std::move(rects), pending_keys_.size() - 1)) {
      pending_refs_.emplace(key_, *ref);
    }
  }

  void flush() {
    scorer_.finish();
    pending_keys_.clear();
    pending_refs_.clear();  // hooks already emptied it; keep the invariant
  }

 private:
  void emit(const geom::Rect& w, const ReplayEntry& entry) {
    if (entry.empty_content) return;  // a replayed skip
    scorer_.push_resolved(w, entry.score);
  }

  void commit_entry(const ReplayKey& key, const ReplayEntry& entry) {
    local_.insert_or_assign(key, entry);
    replay_.insert(key, entry);
  }

  /// The window's content, bit-identical to ChipIndex::query on the
  /// flattened layer: apply() maps half-open cell sets exactly and
  /// commutes with intersect, so clipping in the cell frame then mapping
  /// back equals mapping then clipping.
  std::vector<geom::Rect> gather(const geom::Rect& w) {
    obs::ScopedTimer query_timer(acc_.query_seconds);
    std::vector<geom::Rect> out;
    for (const std::uint32_t id : ids_) {
      const Visit& v = visits_[id];
      const geom::Rect local_window = v.to_local.apply(w);
      for (const geom::Rect& r :
           cells_[v.cell].query(local_window, cell_scratch_[v.cell])) {
        const geom::Rect top =
            v.to_top.apply(r.shifted(local_window.xlo, local_window.ylo));
        out.push_back(top.shifted(-w.xlo, -w.ylo));
      }
    }
    return out;
  }

  const std::vector<ChipIndex>& cells_;
  const std::vector<Visit>& visits_;
  const InstanceGrid& grid_;
  ReplayCache& replay_;
  ShardAccum& acc_;
  bool skip_empty_ = true;
  DedupScorer scorer_;
  std::vector<ChipIndex::QueryScratch> cell_scratch_;  ///< one per cell
  InstanceGrid::Scratch grid_scratch_;
  std::vector<std::uint32_t> ids_;  ///< visits overlapping current window
  ReplayKey key_;                   ///< current window's key (reused)
  std::unordered_map<ReplayKey, ReplayEntry, ReplayKeyHash> local_;
  std::vector<ReplayKey> pending_keys_;  ///< hook tag -> key, cleared at flush
  /// Keys whose first window is still pending in the scorer's current
  /// batch; repeats alias its slot. The hook erases entries as their batch
  /// resolves, so the map only ever holds live refs.
  std::unordered_map<ReplayKey, DedupScorer::PendingRef, ReplayKeyHash>
      pending_refs_;
};

}  // namespace

ScanResult scan_chip(const ChipIndex& chip, const Detector& detector,
                     const ScanConfig& config) {
  return scan_chip(chip, detector, config, ThreadPool::global());
}

ScanResult scan_chip(const ChipIndex& chip, const Detector& detector,
                     const ScanConfig& config, ThreadPool& pool) {
  return scan_flat(chip, nullptr, detector, config, pool);
}

ScanResult scan_chip_two_stage(const ChipIndex& chip,
                               const Detector& prefilter,
                               const Detector& refiner,
                               const ScanConfig& config) {
  return scan_chip_two_stage(chip, prefilter, refiner, config,
                             ThreadPool::global());
}

ScanResult scan_chip_two_stage(const ChipIndex& chip,
                               const Detector& prefilter,
                               const Detector& refiner,
                               const ScanConfig& config, ThreadPool& pool) {
  return scan_flat(chip, &prefilter, refiner, config, pool);
}

ScanResult scan_library(const gds::Library& lib, const std::string& top,
                        std::int16_t layer, const Detector& detector,
                        const ScanConfig& config) {
  return scan_library(lib, top, layer, detector, config,
                      ThreadPool::global());
}

ScanResult scan_library(const gds::Library& lib, const std::string& top,
                        std::int16_t layer, const Detector& detector,
                        const ScanConfig& config, ThreadPool& pool) {
  if (!config.hierarchical) {
    return scan_chip(ChipIndex::from_library(lib, top, layer), detector,
                     config, pool);
  }
  LHD_CHECK(config.window_nm > 0 && config.stride_nm > 0, "bad scan config");
  Stopwatch sw;

  // Enumerate instance placements from the structure tree and index each
  // distinct cell's own geometry exactly once. The scan extent is the
  // union of the visit bboxes, which equals the flattened index's extent:
  // every non-degenerate flattened rect is some visit's transformed own
  // rect (D4 transforms preserve non-degeneracy and commute with unite),
  // so the window grids match and so does the hit list.
  const std::vector<gds::LayerInstance> placements =
      lib.layer_instances(top, layer);
  std::vector<ChipIndex> cells;
  std::unordered_map<std::size_t, std::uint32_t> cell_of;
  std::vector<Visit> visits;
  geom::Rect extent;
  for (const gds::LayerInstance& placement : placements) {
    const auto [it, fresh] = cell_of.try_emplace(
        placement.structure, static_cast<std::uint32_t>(cells.size()));
    if (fresh) {
      cells.emplace_back(gds::structure_layer_rects(
          lib.structures()[placement.structure], layer));
    }
    const ChipIndex& cell = cells[it->second];
    // Only degenerate shapes: the flattened index drops them too.
    if (cell.rect_count() == 0) continue;
    Visit v;
    v.cell = it->second;
    v.to_top = placement.transform;
    v.to_local = placement.transform.inverse();
    v.bbox = placement.transform.apply(cell.extent());
    extent = extent.unite(v.bbox);
    visits.push_back(v);
  }
  std::vector<char> cell_used(cells.size(), 0);
  for (const Visit& v : visits) cell_used[v.cell] = 1;

  const InstanceGrid grid(
      visits, extent,
      std::max<geom::Coord>(config.window_nm, geom::Coord{2048}));
  ReplayCache replay;
  ScanResult result = grid_scan(
      extent, config, pool,
      [&](ShardAccum& acc, ScoreCache& cache, std::size_t batch) {
        return HierWorker(cells, visits, grid, replay, detector, cache, batch,
                          acc, config);
      });
  result.instances = visits.size();
  result.distinct_cells = static_cast<std::size_t>(
      std::count(cell_used.begin(), cell_used.end(), char{1}));
  result.seconds = sw.seconds();  // include enumeration + cell indexing
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.add("scan.hier.runs");
    reg.add("scan.hier.replay_hits", result.replay_hits);
    reg.add("scan.hier.stitch_windows", result.stitch_windows);
    reg.add("scan.hier.instances", result.instances);
    reg.add("scan.hier.cells", result.distinct_cells);
  }
  return result;
}

}  // namespace lhd::core
