#include "lhd/core/score_cache.hpp"

#include <algorithm>

#include "lhd/util/check.hpp"

namespace lhd::core {

ScoreCache::ScoreCache(std::size_t capacity, std::size_t shard_count)
    : capacity_(capacity) {
  LHD_CHECK(shard_count > 0, "score cache needs at least one shard");
  // Never allocate more shards than entries: with capacity 1 a 16-way
  // split would either break the bound or leave 15 dead shards.
  shard_count_ = std::max<std::size_t>(
      1, std::min(shard_count, std::max<std::size_t>(capacity_, 1)));
  // Split the bound exactly: a plain capacity/shards would silently drop
  // the remainder (ScoreCache(20, 16) used to hold only 16 entries), so
  // the first capacity % shards shards get one extra slot each.
  per_shard_base_ = capacity_ / shard_count_;
  per_shard_remainder_ = capacity_ % shard_count_;
  shards_ = std::make_unique<Shard[]>(shard_count_);
}

std::optional<float> ScoreCache::lookup(const data::CanonicalClip& key,
                                        std::uint64_t hash) const {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const Shard& shard = shard_for(hash);
  {
    const MutexLock lock(shard.mutex);
    const auto it = shard.map.find(hash);
    if (it != shard.map.end() && it->second.key == key) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.score;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ScoreCache::insert(const data::CanonicalClip& key, std::uint64_t hash,
                        float score) {
  if (capacity_ == 0) return;
  const std::size_t index = shard_index(hash);
  Shard& shard = shards_[index];
  const std::size_t bound = shard_capacity(index);
  std::uint64_t evicted = 0;
  bool collided = false;
  {
    const MutexLock lock(shard.mutex);
    const auto it = shard.map.find(hash);
    if (it != shard.map.end()) {
      if (it->second.key == key) return;  // duplicate: first writer wins
      // Full-key collision: a different pattern owns this hash slot. An
      // early return here would make `key` permanently uncacheable (the
      // incumbent never ages out of the map entry it shadows), so replace
      // it — both scores are exact, this only chooses which pattern gets
      // the memo. The FIFO position is inherited: the slot's age is the
      // incumbent's age.
      it->second = Entry{key, score};
      collided = true;
    } else {
      while (shard.map.size() >= bound && !shard.fifo.empty()) {
        shard.map.erase(shard.fifo.front());
        shard.fifo.pop_front();
        ++evicted;
      }
      if (bound == 0) return;  // a zero-capacity shard stores nothing
      shard.map.emplace(hash, Entry{key, score});
      shard.fifo.push_back(hash);
    }
  }
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  if (collided) collisions_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ScoreCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const MutexLock lock(shards_[s].mutex);
    total += shards_[s].map.size();
  }
  return total;
}

ScoreCache::Stats ScoreCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.collisions = collisions_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace lhd::core
