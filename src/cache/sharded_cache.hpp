// Concurrent striped-mutex adapter over the single-threaded Cache policies.
//
// The policy implementations (LRU/LFU/FIFO/RANDOM) are deliberately
// single-threaded — the simulator owns one per router. The multi-reactor
// runtime (runtime::ServerGroup, PR 4) shares cache state across N worker
// threads, so ShardedCache partitions the object space across S shards,
// each a private Cache instance behind its own Mutex. An operation on
// object o locks exactly shard_of(o) — concurrent operations on different
// shards never contend, and per-shard op streams are exactly as
// deterministic as the underlying policy (the property the churn test in
// tests/test_sharded_cache.cpp checks against a serialized reference).
//
// Semantics vs the unsharded policy: capacity is split across shards
// (shard i serves only its slice of the object space), so global eviction
// order interleaves differently and an object larger than its *shard's*
// slice — not the total — is refused. shards=1 is byte-identical to the
// wrapped policy. Aggregate accessors (object_count/used_units) lock one
// shard at a time: each addend is internally consistent, the sum is a
// moment-in-time approximation under concurrent writers.
#pragma once

#include <cstddef>
#include <vector>

#include "cache/cache.hpp"
#include "core/sync.hpp"

namespace idicn::cache {

class ShardedCache final : public Cache {
 public:
  /// Wrap `shards` instances of `kind` (clamped to ≥ 1), splitting
  /// `capacity` units evenly across them (the first capacity % shards
  /// shards take the remainder). `seed` perturbs per-shard Random policies
  /// so they do not evict in lockstep.
  ShardedCache(PolicyKind kind, std::uint64_t capacity, std::size_t shards,
               std::uint64_t seed = 0);

  // Cache interface — each call locks exactly one shard.
  [[nodiscard]] bool lookup(ObjectId object) override;
  [[nodiscard]] bool contains(ObjectId object) const override;
  void insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override;
  /// Not supported: throws std::logic_error.
  void copy_from(const Cache& source) override;

  [[nodiscard]] std::size_t object_count() const noexcept override;
  [[nodiscard]] std::uint64_t used_units() const noexcept override;
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Which shard owns `object` — exposed so tests can build per-shard
  /// workloads that stay deterministic under concurrency.
  [[nodiscard]] std::size_t shard_of(ObjectId object) const noexcept;

 private:
  struct Shard {
    mutable core::sync::Mutex mutex;
    std::unique_ptr<Cache> cache IDICN_PT_GUARDED_BY(mutex);
  };

  /// Sized by the constructor, never resized: the vector (and each
  /// Shard's `cache` pointer) is immutable after construction; only the
  /// pointed-to Cache mutates, under its shard's mutex.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t capacity_;
};

}  // namespace idicn::cache
