#pragma once
/// @file score_cache.hpp
/// @brief Sharded, thread-safe memo of detector scores keyed by canonical
/// clip content (`data::CanonicalClip` + its 64-bit hash) — the cache the
/// deduplicated full-chip scan consults so each distinct layout pattern is
/// classified once, not once per occurrence.
///
/// Thread-safety: every method is safe to call concurrently. Entries are
/// spread over N shards by key hash; each shard is an `lhd::Mutex`-guarded
/// hash map with FIFO eviction (annotated with LHD_GUARDED_BY and
/// machine-checked under Clang, see docs/STATIC_ANALYSIS.md). Hit/miss/
/// eviction tallies are relaxed atomics. Lookups compare the full
/// canonical form, never just the 64-bit hash, so a hash collision can
/// degrade the hit rate but never alias two distinct patterns — cached
/// scores are exact by construction.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "lhd/data/clip_hash.hpp"
#include "lhd/util/thread_annotations.hpp"

namespace lhd::core {

class ScoreCache {
 public:
  /// Monotonic totals since construction.
  /// Totals are *cumulative*: a cache serving several scans keeps counting
  /// across them. Consumers that need per-scan numbers (the scan's
  /// ScanResult does) must snapshot before and report the difference —
  /// that is what operator- / delta_since() are for.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Full-key hash collisions observed by insert(): a resident entry
    /// with the same 64-bit hash but a *different* canonical key was
    /// replaced. Always exact (never a correctness event — lookups compare
    /// the full key), but a high rate means patterns are thrashing one
    /// hash slot.
    std::uint64_t collisions = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
    /// Component-wise difference: `stats() - snapshot` is the activity
    /// since `snapshot` was taken (exact when no concurrent user ran in
    /// between).
    friend Stats operator-(const Stats& a, const Stats& b) {
      return {a.hits - b.hits, a.misses - b.misses,
              a.evictions - b.evictions, a.collisions - b.collisions};
    }
  };

  /// `capacity` bounds the total entry count across all shards *exactly*:
  /// each shard holds capacity/shards entries and the remainder is spread
  /// one-per-shard across the first capacity%shards shards, so
  /// ScoreCache(20, 16) really holds 20 entries, not 16. 0 disables
  /// storage entirely — every lookup misses and inserts are dropped, which
  /// keeps the dedup-scan control flow valid with caching effectively off.
  explicit ScoreCache(std::size_t capacity, std::size_t shard_count = 16);

  /// The memoized score for `key`, or nullopt. `hash` must be
  /// `data::canonical_hash(key)` (callers already have it — recomputing
  /// per probe would double the canonicalization cost).
  std::optional<float> lookup(const data::CanonicalClip& key,
                              std::uint64_t hash) const;

  /// Memoize `score` for `key`. First writer wins on a duplicate: a
  /// concurrent insert of the *same* key (two shards scoring the same
  /// pattern at once) is a no-op, and since scores are a deterministic
  /// function of the canonical form the surviving entry is identical
  /// either way. A resident entry whose key *differs* under the same
  /// 64-bit hash (a full-key collision) is replaced — both scores are
  /// exact, and keeping the incumbent forever would make the newer
  /// pattern permanently uncacheable (counted in Stats::collisions).
  /// Evicts the shard's oldest entry when the shard is full.
  void insert(const data::CanonicalClip& key, std::uint64_t hash,
              float score);

  std::size_t capacity() const { return capacity_; }
  /// Current entry count across shards (takes every shard lock; O(shards)).
  std::size_t size() const;

  Stats stats() const;

 private:
  struct Entry {
    data::CanonicalClip key;
    float score = 0.0f;
  };

  /// One lock's worth of the key space. The FIFO queue mirrors the map's
  /// insertion order and drives eviction.
  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::uint64_t, Entry> map LHD_GUARDED_BY(mutex);
    std::deque<std::uint64_t> fifo LHD_GUARDED_BY(mutex);
  };

  std::size_t shard_index(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash % shard_count_);
  }
  Shard& shard_for(std::uint64_t hash) const {
    return shards_[shard_index(hash)];
  }
  /// Entry bound for shard `index`: the uniform share plus one of the
  /// capacity % shard_count remainder slots, so the per-shard bounds sum
  /// to exactly capacity_.
  std::size_t shard_capacity(std::size_t index) const {
    return per_shard_base_ + (index < per_shard_remainder_ ? 1 : 0);
  }

  std::size_t capacity_ = 0;
  std::size_t shard_count_ = 1;
  std::size_t per_shard_base_ = 0;
  std::size_t per_shard_remainder_ = 0;
  std::unique_ptr<Shard[]> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> collisions_{0};
};

}  // namespace lhd::core
