#include "cache/sharded_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/hot_path.hpp"

namespace idicn::cache {
namespace {

/// Fibonacci-hash the object id so adjacent ids (the common workload:
/// Zipf ranks 0..N) spread across shards instead of striping modulo-style.
std::size_t spread(ObjectId object) noexcept {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(object) * 0x9E3779B97F4A7C15ULL) >> 32U);
}

}  // namespace

ShardedCache::ShardedCache(PolicyKind kind, std::uint64_t capacity,
                           std::size_t shards, std::uint64_t seed)
    : capacity_(capacity) {
  const std::size_t count = std::max<std::size_t>(1, shards);
  const std::uint64_t base = capacity / count;
  const std::uint64_t remainder = capacity % count;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::uint64_t slice = base + (i < remainder ? 1 : 0);
    shard->cache = make_cache(kind, slice, seed + i);
    shards_.push_back(std::move(shard));
  }
}

std::size_t ShardedCache::shard_of(ObjectId object) const noexcept {
  return spread(object) % shards_.size();
}

IDICN_HOT_PATH bool ShardedCache::lookup(ObjectId object) {
  Shard& shard = *shards_[shard_of(object)];
  const core::sync::MutexLock lock(shard.mutex);
  return shard.cache->lookup(object);
}

bool ShardedCache::contains(ObjectId object) const {
  const Shard& shard = *shards_[shard_of(object)];
  const core::sync::MutexLock lock(shard.mutex);
  return shard.cache->contains(object);
}

void ShardedCache::insert(ObjectId object, std::uint64_t size,
                          std::vector<ObjectId>& evicted) {
  Shard& shard = *shards_[shard_of(object)];
  const core::sync::MutexLock lock(shard.mutex);
  shard.cache->insert(object, size, evicted);
}

void ShardedCache::erase(ObjectId object) {
  Shard& shard = *shards_[shard_of(object)];
  const core::sync::MutexLock lock(shard.mutex);
  shard.cache->erase(object);
}

void ShardedCache::copy_from(const Cache& /*source*/) {
  throw std::logic_error("ShardedCache::copy_from: not supported");
}

std::size_t ShardedCache::object_count() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    total += shard->cache->object_count();
  }
  return total;
}

std::uint64_t ShardedCache::used_units() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    total += shard->cache->used_units();
  }
  return total;
}

std::uint64_t ShardedCache::capacity_units() const noexcept {
  return capacity_;
}

}  // namespace idicn::cache
