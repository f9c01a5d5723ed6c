// cache::ShardedCache consistency suite (mirrors the holder-index
// consistency methodology):
//
//   1. shards=1 must be byte-identical to the wrapped single-threaded
//      policy — same hits, same eviction victims in the same order.
//   2. Under concurrent churn from multiple writer threads, every
//      per-shard operation stream must match a mutex-free serialized
//      reference cache op-for-op. Threads own disjoint shard sets (via
//      shard_of), so each shard sees a deterministic stream even though
//      the ShardedCache as a whole is hammered concurrently — TSan (CI)
//      checks the locking, the references check the results.
//   3. Capacity splits across shards: an object bigger than its shard's
//      slice is refused even when it would fit the total.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/sharded_cache.hpp"
#include "core/sync.hpp"

namespace {

using namespace idicn;
using cache::Cache;
using cache::ObjectId;
using cache::PolicyKind;
using cache::ShardedCache;

/// The constructor's split: shard i gets capacity/S plus one of the
/// remainder units. Tests re-derive it to build exact per-shard references.
std::uint64_t shard_slice(std::uint64_t capacity, std::size_t shards,
                          std::size_t index) {
  return capacity / shards + (index < capacity % shards ? 1 : 0);
}

// ---------------------------------------------------------------------------
// 1. shards=1 ≡ wrapped policy, byte for byte

class SingleShardIdentity : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SingleShardIdentity, MatchesWrappedPolicyExactly) {
  constexpr std::uint64_t kCapacity = 16;
  constexpr std::uint64_t kSeed = 7;
  ShardedCache sharded(GetParam(), kCapacity, 1, kSeed);
  const auto reference = cache::make_cache(GetParam(), kCapacity, kSeed);

  std::mt19937_64 rng(0x5eed);
  for (int op = 0; op < 20'000; ++op) {
    const auto object = static_cast<ObjectId>(rng() % 64);
    switch (rng() % 4) {
      case 0: {
        ASSERT_EQ(sharded.lookup(object), reference->lookup(object)) << op;
        break;
      }
      case 1: {
        ASSERT_EQ(sharded.contains(object), reference->contains(object)) << op;
        break;
      }
      case 2: {
        const std::uint64_t size = 1 + rng() % 3;
        std::vector<ObjectId> evicted_sharded, evicted_reference;
        sharded.insert(object, size, evicted_sharded);
        reference->insert(object, size, evicted_reference);
        ASSERT_EQ(evicted_sharded, evicted_reference) << op;  // order too
        break;
      }
      default: {
        sharded.erase(object);
        reference->erase(object);
        break;
      }
    }
    ASSERT_EQ(sharded.object_count(), reference->object_count()) << op;
    ASSERT_EQ(sharded.used_units(), reference->used_units()) << op;
  }
  EXPECT_EQ(sharded.capacity_units(), reference->capacity_units());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SingleShardIdentity,
                         ::testing::Values(PolicyKind::Lru, PolicyKind::Lfu,
                                           PolicyKind::Fifo,
                                           PolicyKind::Random),
                         [](const auto& info) {
                           return cache::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Shard geometry

TEST(ShardedCache, ShardOfIsStableInRangeAndCoversAllShards) {
  constexpr std::size_t kShards = 8;
  ShardedCache sharded(PolicyKind::Lru, 64, kShards);
  ASSERT_EQ(sharded.shard_count(), kShards);
  std::vector<bool> seen(kShards, false);
  for (ObjectId object = 0; object < 1024; ++object) {
    const std::size_t shard = sharded.shard_of(object);
    ASSERT_LT(shard, kShards);
    ASSERT_EQ(sharded.shard_of(object), shard);  // stable
    seen[shard] = true;
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(seen[s]) << "shard " << s << " owns no object in [0, 1024)";
  }
}

TEST(ShardedCache, ZeroShardsClampsToOne) {
  ShardedCache sharded(PolicyKind::Lru, 4, 0);
  EXPECT_EQ(sharded.shard_count(), 1u);
  std::vector<ObjectId> evicted;
  sharded.insert(1, 1, evicted);
  EXPECT_TRUE(sharded.contains(1));
}

TEST(ShardedCache, CopyFromIsRejected) {
  ShardedCache source(PolicyKind::Lru, 8, 2);
  ShardedCache copy(PolicyKind::Lru, 8, 2);
  std::vector<ObjectId> evicted;
  source.insert(1, 1, evicted);
  EXPECT_THROW(copy.copy_from(source), std::logic_error);
  EXPECT_EQ(copy.object_count(), 0u);
}

TEST(ShardedCache, ObjectLargerThanItsShardSliceIsRefused) {
  constexpr std::uint64_t kCapacity = 10;
  constexpr std::size_t kShards = 4;  // slices: 3, 3, 2, 2
  ShardedCache sharded(PolicyKind::Lru, kCapacity, kShards);
  EXPECT_EQ(sharded.capacity_units(), kCapacity);
  std::vector<ObjectId> evicted;
  for (ObjectId object = 0; object < 32; ++object) {
    const std::uint64_t slice =
        shard_slice(kCapacity, kShards, sharded.shard_of(object));
    // Fits the total, not the slice: refused (the documented semantic
    // difference vs the unsharded policy).
    sharded.insert(object, slice + 1, evicted);
    EXPECT_FALSE(sharded.contains(object)) << "object " << object;
    // Exactly the slice: admitted.
    sharded.insert(object, slice, evicted);
    EXPECT_TRUE(sharded.contains(object)) << "object " << object;
    sharded.erase(object);
  }
  EXPECT_EQ(sharded.object_count(), 0u);
  EXPECT_EQ(sharded.used_units(), 0u);
}

// ---------------------------------------------------------------------------
// 2. Concurrent churn vs serialized references (the PR-4 satellite)

/// T writer threads hammer ONE ShardedCache concurrently. Thread t owns
/// the shards s with s % T == t and touches only objects in those shards,
/// so each shard's op stream is serialized and deterministic; every op's
/// result (hit, presence, eviction victims) must equal a thread-local
/// plain make_cache reference built with the shard's exact slice and
/// seed. Concurrency bugs surface two ways: TSan (the suite runs under
/// the sanitizer CI job) and cross-shard state leaks breaking the mirror.
void run_concurrent_churn(PolicyKind kind) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kShards = 8;
  constexpr std::uint64_t kCapacity = 64;
  constexpr std::uint64_t kSeed = 42;
  constexpr ObjectId kObjects = 4096;
  constexpr int kOpsPerThread = 30'000;

  ShardedCache sharded(kind, kCapacity, kShards, kSeed);
  ASSERT_EQ(sharded.shard_count(), kShards);

  // Pre-bucket the object space by owning thread.
  std::vector<std::vector<ObjectId>> owned(kThreads);
  for (ObjectId object = 0; object < kObjects; ++object) {
    owned[sharded.shard_of(object) % kThreads].push_back(object);
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(owned[t].empty()) << "thread " << t << " owns no objects";
  }

  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  {
    std::vector<core::sync::Thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        // One reference cache per owned shard, constructed exactly as the
        // ShardedCache constructor builds that shard.
        std::unordered_map<std::size_t, std::unique_ptr<Cache>> references;
        for (std::size_t s = t; s < kShards; s += kThreads) {
          references.emplace(
              s, cache::make_cache(kind, shard_slice(kCapacity, kShards, s),
                                   kSeed + s));
        }
        std::mt19937_64 rng(0xc0ffee + t);
        const auto& pool = owned[t];
        for (int op = 0; op < kOpsPerThread && mismatches.load() == 0; ++op) {
          const ObjectId object = pool[rng() % pool.size()];
          Cache& reference = *references.at(sharded.shard_of(object));
          bool ok = true;
          switch (rng() % 10) {
            case 0:
            case 1:
            case 2: {  // 30% lookup
              ok = sharded.lookup(object) == reference.lookup(object);
              break;
            }
            case 3: {  // 10% contains
              ok = sharded.contains(object) == reference.contains(object);
              break;
            }
            case 4: {  // 10% erase
              sharded.erase(object);
              reference.erase(object);
              break;
            }
            default: {  // 50% insert
              const std::uint64_t size = 1 + rng() % 3;
              std::vector<ObjectId> evicted_sharded, evicted_reference;
              sharded.insert(object, size, evicted_sharded);
              reference.insert(object, size, evicted_reference);
              ok = evicted_sharded == evicted_reference;
              break;
            }
          }
          if (!ok) {
            mismatches.fetch_add(1);
            ADD_FAILURE() << "thread " << t << " op " << op
                          << " diverged from the serialized reference on "
                             "object "
                          << object;
          }
        }
      });
    }

    // A concurrent sampler exercises the aggregate accessors while the
    // writers churn: each addend is shard-consistent, so the sums must
    // stay within the global bounds even mid-flight.
    core::sync::Thread sampler([&] {
      while (!done.load(std::memory_order_acquire)) {
        EXPECT_LE(sharded.used_units(), sharded.capacity_units());
        EXPECT_LE(sharded.object_count(),
                  static_cast<std::size_t>(sharded.capacity_units()));
      }
    });
    for (auto& writer : writers) writer.join();
    done.store(true, std::memory_order_release);
    sampler.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(sharded.used_units(), kCapacity);
}

TEST(ShardedCacheChurn, ConcurrentWritersMatchSerializedReferenceLru) {
  run_concurrent_churn(PolicyKind::Lru);
}

TEST(ShardedCacheChurn, ConcurrentWritersMatchSerializedReferenceLfu) {
  run_concurrent_churn(PolicyKind::Lfu);
}

TEST(ShardedCacheChurn, ConcurrentWritersMatchSerializedReferenceRandom) {
  // Random evicts by per-shard RNG; ShardedCache seeds shard s with
  // seed+s, and so do the references — determinism must survive sharding.
  run_concurrent_churn(PolicyKind::Random);
}

}  // namespace
