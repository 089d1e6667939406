#include "lhd/core/scan.hpp"

#include <algorithm>
#include <compare>
#include <optional>
#include <span>
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
/// starting at `origin`. The offset is taken in int64: coordinates span
/// ±2^30, so `v - origin` reaches 2^31 and overflows a Coord. The
/// division rounds toward negative infinity, so a window starting left of
/// / below the grid maps to a negative bucket the caller clamps away
/// rather than truncating up to bucket 0.
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

template <typename Visit>
void ChipIndex::for_each_candidate(const geom::Rect& window,
                                   QueryScratch& scratch,
                                   Visit&& visit) const {
  if (rects_.empty()) return;
  if (!window.overlaps(extent_)) return;
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
        visit(i);
      }
    }
  }
}

std::vector<geom::Rect> ChipIndex::query(const geom::Rect& window,
                                         QueryScratch& scratch) const {
  std::vector<geom::Rect> out;
  for_each_candidate(window, scratch, [&](std::uint32_t i) {
    const geom::Rect c = rects_[i].intersect(window);
    if (!c.empty()) out.push_back(c.shifted(-window.xlo, -window.ylo));
  });
  return out;
}

void ChipIndex::query_ids(const geom::Rect& window, QueryScratch& scratch,
                          std::vector<std::uint32_t>& out) const {
  out.clear();
  for_each_candidate(window, scratch, [&](std::uint32_t i) {
    if (rects_[i].overlaps(window)) out.push_back(i);
  });
  std::sort(out.begin(), out.end());
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

/// The one scorer behind every scan. Each shard's worker hands it the
/// windows it admitted, in scan order. The scorer keys each window by its
/// exact memo key (the window-local rects, sorted, plus window_nm —
/// data/clip_hash.hpp) and probes the scan-wide ScoreCache; on a miss it
/// scores the key's clip at once with Detector::score() and memoizes the
/// score for every shard. The key holds the window's geometry exactly, so
/// the memoized score is the score of the window as it sits: dedup changes
/// the cost of a scan, never its answer. Each window is emitted the moment
/// its score is known, so hits come out in scan (row-major) order.
///
/// The plain scan is the degenerate configuration: a capacity-0 cache
/// memoizes nothing, so every window reaches the detector on its own.
class DedupScorer {
 public:
  DedupScorer(const Detector& det, ScoreCache& cache, ShardAccum& acc,
              geom::Coord window_nm)
      : det_(det),
        cache_(cache),
        acc_(acc),
        window_nm_(window_nm),
        threshold_(det.threshold()) {}

  /// Score the window holding `rects` (probe, and on a miss score and
  /// insert), emit it, and return the score.
  float score(const geom::Rect& window, std::vector<geom::Rect> rects) {
    const data::CanonicalClip canon =
        data::canonical_clip(std::move(rects), window_nm_);
    const std::uint64_t hash = data::canonical_hash(canon);
    std::optional<float> value = cache_.lookup(canon, hash);
    if (!value) {
      value = det_.score(make_clip(canon.rects, window_nm_));
      ++acc_.windows_classified;
      cache_.insert(canon, hash, *value);
    }
    emit(window, *value);
    return *value;
  }

  /// Emit a window whose score is already known (a replayed memo): no
  /// cache probe, no detector work.
  void emit(const geom::Rect& window, float value) {
    if (value > threshold_) {
      ++acc_.flagged;
      acc_.hits.push_back({window, value});
    }
  }

 private:
  const Detector& det_;
  ScoreCache& cache_;
  ShardAccum& acc_;
  geom::Coord window_nm_;
  float threshold_;
};

/// Shared scan skeleton: set up the scan's ScoreCache, enumerate the window
/// grid over `extent`, shard it row-wise, hand every window to a per-shard
/// worker built by `make_worker(accum, cache)`, and merge shards in
/// row-major order so results match the serial scan bit for bit. Rows are
/// split *evenly*: with R rows over S shards the first R%S shards take one
/// extra row, so every shard covers a non-empty contiguous ascending range
/// and shards.size() is the shard count actually used.
///
/// The cache set-up is the same for every scan. Dedup on uses the
/// caller-shared ScanConfig::cache or a private one of cache_capacity
/// entries. Dedup off is the degenerate case: a private capacity-0 cache
/// that memoizes nothing, so every window reaches the detector on its own.
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
    auto worker = make_worker(acc, cache);
    for (std::size_t r = lo; r < hi; ++r) {
      const geom::Coord y = row_ys[r];
      for (geom::Coord x = extent.xlo; x < extent.xhi;
           x += config.stride_nm) {
        worker.window(geom::Rect(x, y, x + config.window_nm,
                                 y + config.window_nm));
      }
    }
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
  for (const auto& acc : accums) {
    result.windows_total += acc.windows_total;
    result.windows_classified += acc.windows_classified;
    result.flagged += acc.flagged;
    result.replay_hits += acc.replay_hits;
    result.stitch_windows += acc.stitch_windows;
    result.hits.insert(result.hits.end(), acc.hits.begin(), acc.hits.end());
    result.shards.push_back(
        {acc.windows_total, acc.seconds, acc.query_seconds});
  }
  const ScoreCache::Stats stats = cache.stats() - before;
  result.cache_hits = stats.hits;
  result.cache_misses = stats.misses;
  result.cache_evictions = stats.evictions;
  result.seconds = sw.seconds();
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
  return result;
}

// ---------------------------------------------------------------------------
// Instance scan: index each distinct cell once, replay per placement. A
// flattened chip is the one-cell, one-placement case.
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

/// A committed window outcome: either "not scored" (no geometry in the
/// window, or the prefilter rejected it; memoized so repeated offsets skip
/// the cell queries too) or a final score.
struct ReplayEntry {
  bool skipped = false;
  float score = 0.0f;
};

/// Entry bound of each replay memo, the scan-wide ReplayCache and every
/// shard-local one, as a backstop: a chip whose every window has a unique
/// key (no repetition to exploit) stops being memoized past the cap
/// instead of growing O(windows) state — lookups stay correct.
constexpr std::size_t kMaxReplayEntries = std::size_t{1} << 20;

/// Scan-wide memo of window outcomes by replay key, shared by every shard.
/// An outcome is published once it is known, so readers never see a
/// placeholder; since a key's score is a pure function of the key, racing
/// writers are idempotent. Bounded by kMaxReplayEntries.
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
    if (map_.size() >= kMaxReplayEntries) return;
    map_.emplace(key, entry);
  }

 private:
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
  /// The cell's only placement: a window overlapping it sits at the one
  /// offset this visit's (dx, dy) names, so its replay key never recurs.
  bool once = false;
};

/// grid_scan's one worker. Per window: look up the overlapping visits in
/// the instance index (none: the window holds no geometry). A window
/// touching a once-placed visit cannot recur, so it skips the replay key
/// and both memos and goes straight to the content path; that is every
/// window of a flattened chip. Otherwise the window is served from (in
/// order) the shard-local memo, the shared ReplayCache, or the content
/// path. The content path inverse-transforms the window into each visit's
/// cell frame, queries that cell's ChipIndex, maps the clipped rects back,
/// and hands the window to the DedupScorer (ScoreCache probe, detector on
/// a miss) unless it is empty or the prefilter rejects it. A keyed
/// window's score or skip is committed to both memos the moment it is
/// known, so every later window with the same key — any shard — replays
/// without touching geometry.
class ScanWorker {
 public:
  ScanWorker(std::span<const ChipIndex> cells, const std::vector<Visit>& visits,
             const ChipIndex& instances, ReplayCache& replay,
             const Detector* prefilter, const Detector& det,
             ScoreCache& cache, ShardAccum& acc, geom::Coord window_nm)
      : cells_(cells),
        visits_(visits),
        instances_(instances),
        replay_(replay),
        prefilter_(prefilter),
        window_nm_(window_nm),
        acc_(acc),
        scorer_(det, cache, acc, window_nm),
        cell_scratch_(cells.size()) {}

  void window(const geom::Rect& w) {
    ++acc_.windows_total;
    // One timer spans lookup and gather where it can: a clock pair costs
    // more than a one-visit lookup.
    obs::ScopedTimer query_timer(acc_.query_seconds);
    instances_.query_ids(w, instance_scratch_, ids_);
    // No placement near the window: the flattened query would be empty.
    if (ids_.empty()) return;
    if (ids_.size() >= 2) ++acc_.stitch_windows;
    if (std::any_of(ids_.begin(), ids_.end(),
                    [&](std::uint32_t id) { return visits_[id].once; })) {
      std::vector<geom::Rect> rects = gather(w);
      query_timer.stop();
      if (admit(rects)) scorer_.score(w, std::move(rects));
      return;
    }
    query_timer.stop();
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
    if (const auto it = local_.find(key_); it != local_.end()) {
      ++acc_.replay_hits;
      emit(w, it->second);
      return;
    }
    if (const auto shared = replay_.lookup(key_)) {
      ++acc_.replay_hits;
      remember(key_, *shared);
      emit(w, *shared);
      return;
    }
    std::vector<geom::Rect> rects;
    {
      obs::ScopedTimer gather_timer(acc_.query_seconds);
      rects = gather(w);
    }
    const ReplayEntry entry =
        admit(rects) ? ReplayEntry{false, scorer_.score(w, std::move(rects))}
                     : ReplayEntry{true, 0.0f};
    remember(key_, entry);
    replay_.insert(key_, entry);
  }

 private:
  void emit(const geom::Rect& w, const ReplayEntry& entry) {
    if (!entry.skipped) scorer_.emit(w, entry.score);
  }

  /// The one writer of the shard-local memo, bounded like ReplayCache.
  void remember(const ReplayKey& key, const ReplayEntry& entry) {
    if (local_.size() < kMaxReplayEntries) local_.emplace(key, entry);
  }

  /// Whether the window is scored: it must hold geometry, and the
  /// prefilter (if any) must predict a hotspot on it as it sits. The
  /// prefilter is the cheap stage, so it is not cached by content.
  bool admit(std::vector<geom::Rect>& rects) const {
    if (rects.empty()) return false;
    if (prefilter_ == nullptr) return true;
    data::Clip clip = make_clip(std::move(rects), window_nm_);
    const bool pass = prefilter_->predict(clip);
    rects = std::move(clip.rects);
    return pass;
  }

  /// The window's content, bit-identical to ChipIndex::query on the
  /// flattened layer: apply() maps half-open cell sets exactly and
  /// commutes with intersect, so clipping in the cell frame then mapping
  /// back equals mapping then clipping.
  std::vector<geom::Rect> gather(const geom::Rect& w) {
    std::vector<geom::Rect> out;
    for (const std::uint32_t id : ids_) {
      const Visit& v = visits_[id];
      const geom::Rect local_window = v.to_local.apply(w);
      std::vector<geom::Rect> rects =
          cells_[v.cell].query(local_window, cell_scratch_[v.cell]);
      if (!v.to_top.mirror_x && v.to_top.angle_deg == 0) {
        // A translation moves window and cell alike: the window-local
        // rects are already the answer.
        if (out.empty()) {
          out = std::move(rects);
        } else {
          out.insert(out.end(), rects.begin(), rects.end());
        }
        continue;
      }
      for (const geom::Rect& r : rects) {
        const geom::Rect top =
            v.to_top.apply(r.shifted(local_window.xlo, local_window.ylo));
        out.push_back(top.shifted(-w.xlo, -w.ylo));
      }
    }
    return out;
  }

  std::span<const ChipIndex> cells_;
  const std::vector<Visit>& visits_;
  const ChipIndex& instances_;  ///< over visit bboxes: id i is visits_[i]
  ReplayCache& replay_;
  const Detector* prefilter_;
  geom::Coord window_nm_;
  ShardAccum& acc_;
  DedupScorer scorer_;
  std::vector<ChipIndex::QueryScratch> cell_scratch_;  ///< one per cell
  ChipIndex::QueryScratch instance_scratch_;
  std::vector<std::uint32_t> ids_;  ///< visits overlapping current window
  ReplayKey key_;                   ///< current window's key (reused)
  std::unordered_map<ReplayKey, ReplayEntry, ReplayKeyHash> local_;
};

/// Every scan's set-up: index the visit bboxes (the instance index) and
/// walk the window grid over their union, one ScanWorker per shard.
/// `cells` is indexed by Visit::cell. The instance index's buckets are no
/// narrower than a window, 2048 nm, or the smallest visit's shorter side:
/// no layout gets more buckets than at a fixed 2048 nm, and a one-visit
/// index has as few as its bbox's aspect ratio allows.
ScanResult scan_visits(std::span<const ChipIndex> cells,
                       const std::vector<Visit>& visits,
                       const Detector* prefilter, const Detector& detector,
                       const ScanConfig& config, ThreadPool& pool) {
  std::vector<geom::Rect> bboxes;
  bboxes.reserve(visits.size());
  // int64, capped at 2^30: a bbox spanning the coordinate range is 2^31.
  std::int64_t smallest_side = std::int64_t{1} << 30;
  for (const Visit& v : visits) {
    smallest_side = std::min({smallest_side,
                              std::int64_t{v.bbox.xhi} - v.bbox.xlo,
                              std::int64_t{v.bbox.yhi} - v.bbox.ylo});
    bboxes.push_back(v.bbox);
  }
  const ChipIndex instances(
      std::move(bboxes), static_cast<geom::Coord>(std::max<std::int64_t>(
                             {config.window_nm, 2048, smallest_side})));
  // Every visit's cell holds geometry, so every bbox is non-empty and the
  // index's degenerate-rect drop cannot shift an id off its visit.
  LHD_CHECK(instances.rect_count() == visits.size(),
            "instance index dropped a visit");
  ReplayCache replay;
  return grid_scan(
      instances.extent(), config, pool,
      [&](ShardAccum& acc, ScoreCache& cache) {
        return ScanWorker(cells, visits, instances, replay, prefilter,
                          detector, cache, acc, config.window_nm);
      });
}

/// scan_chip and scan_chip_two_stage: the chip is the one-placement
/// hierarchy, its whole index placed once, untransformed. `prefilter` is
/// null for the single-stage scan.
ScanResult scan_flat(const ChipIndex& chip, const Detector* prefilter,
                     const Detector& detector, const ScanConfig& config,
                     ThreadPool& pool) {
  LHD_CHECK(!config.hierarchical,
            "scan_chip scans a flattened index; the hierarchical path needs "
            "the GDS structure tree - call scan_library()");
  std::vector<Visit> visits;
  if (chip.rect_count() > 0) {
    Visit v;
    v.bbox = chip.extent();
    v.once = true;
    visits.push_back(v);
  }
  return scan_visits(std::span(&chip, 1), visits, prefilter, detector,
                     config, pool);
}

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
    visits.push_back(v);
  }
  std::vector<std::size_t> visits_of(cells.size(), 0);
  for (const Visit& v : visits) ++visits_of[v.cell];
  for (Visit& v : visits) v.once = visits_of[v.cell] == 1;

  ScanResult result =
      scan_visits(cells, visits, nullptr, detector, config, pool);
  result.instances = visits.size();
  result.distinct_cells = static_cast<std::size_t>(std::count_if(
      visits_of.begin(), visits_of.end(), [](std::size_t n) { return n > 0; }));
  result.seconds = sw.seconds();  // include enumeration + cell indexing
  auto& reg = obs::Registry::global();
  reg.add("scan.hier.runs");
  reg.add("scan.hier.replay_hits", result.replay_hits);
  reg.add("scan.hier.stitch_windows", result.stitch_windows);
  reg.add("scan.hier.instances", result.instances);
  reg.add("scan.hier.cells", result.distinct_cells);
  return result;
}

}  // namespace lhd::core
