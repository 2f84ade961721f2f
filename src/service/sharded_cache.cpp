#include "service/sharded_cache.h"

#include <bit>

namespace fj {

ShardedEstimateCache::ShardedEstimateCache(size_t capacity, size_t num_shards,
                                           const TableEpochRegistry* epochs)
    : epochs_(epochs) {
  size_t shards = std::bit_ceil(num_shards == 0 ? size_t{1} : num_shards);
  shard_mask_ = shards - 1;
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::optional<double> ShardedEstimateCache::Lookup(const QueryFingerprint& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  const CachedEstimate& entry = it->second->second;
  if (epochs_ != nullptr &&
      epochs_->IsStale(entry.table_bits, entry.epoch)) {
    // Lazy invalidation: the entry predates an update to a table it touches.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.invalidations;
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return entry.value;
}

void ShardedEstimateCache::Insert(const QueryFingerprint& key, double value,
                                  uint64_t table_bits, uint64_t epoch) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = CachedEstimate{value, epoch, table_bits};
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.emplace_front(key, CachedEstimate{value, epoch, table_bits});
  shard.index.emplace(key, shard.lru.begin());
}

void ShardedEstimateCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

CacheStats ShardedEstimateCache::Stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.invalidations += shard->invalidations;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace fj
