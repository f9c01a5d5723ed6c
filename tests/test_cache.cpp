// Cache policy tests: per-policy eviction semantics plus generic invariants
// checked across all bounded policies (parameterized).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <type_traits>
#include <utility>

#include "cache/admission.hpp"
#include "cache/budget.hpp"
#include "cache/cache.hpp"
#include "cache/lru_cache.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn::cache;

/// The id LRU keeps for its empty buckets (cache.hpp, Cache::insert).
constexpr ObjectId kReservedId = std::numeric_limits<ObjectId>::max();

std::vector<ObjectId> insert(Cache& cache, ObjectId object, std::uint64_t size = 1) {
  std::vector<ObjectId> evicted;
  cache.insert(object, size, evicted);
  return evicted;
}

// --- LRU specifics -----------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsed) {
  auto cache = make_cache(PolicyKind::Lru, 3);
  insert(*cache, 1);
  insert(*cache, 2);
  insert(*cache, 3);
  EXPECT_TRUE(cache->lookup(1));  // 1 becomes MRU; 2 is now LRU
  const auto evicted = insert(*cache, 4);
  EXPECT_EQ(evicted, std::vector<ObjectId>{2});
  EXPECT_TRUE(cache->contains(1));
  EXPECT_FALSE(cache->contains(2));
}

TEST(LruCache, ReinsertRefreshesRecency) {
  auto cache = make_cache(PolicyKind::Lru, 2);
  insert(*cache, 1);
  insert(*cache, 2);
  insert(*cache, 1);  // refresh, not duplicate
  EXPECT_EQ(cache->object_count(), 2u);
  const auto evicted = insert(*cache, 3);
  EXPECT_EQ(evicted, std::vector<ObjectId>{2});
}

TEST(LruCache, SizeAwareEviction) {
  auto cache = make_cache(PolicyKind::Lru, 10);
  insert(*cache, 1, 4);
  insert(*cache, 2, 4);
  const auto evicted = insert(*cache, 3, 6);  // needs 6; evicts 1 then has 4+6=10
  EXPECT_EQ(evicted, std::vector<ObjectId>{1});
  EXPECT_EQ(cache->used_units(), 10u);
}

TEST(LruCache, OversizedObjectNotAdmitted) {
  auto cache = make_cache(PolicyKind::Lru, 10);
  insert(*cache, 1, 3);
  const auto evicted = insert(*cache, 2, 11);
  EXPECT_TRUE(evicted.empty());
  EXPECT_FALSE(cache->contains(2));
  EXPECT_TRUE(cache->contains(1));  // nothing was disturbed
}

TEST(LruCache, EraseFreesSpace) {
  auto cache = make_cache(PolicyKind::Lru, 2);
  insert(*cache, 1);
  insert(*cache, 2);
  cache->erase(1);
  EXPECT_EQ(cache->object_count(), 1u);
  EXPECT_TRUE(insert(*cache, 3).empty());  // no eviction needed
}

/// Minimal LRU model for differential testing: a list, most recent first.
struct ReferenceLru {
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;
  std::list<std::pair<ObjectId, std::uint64_t>> order;

  std::list<std::pair<ObjectId, std::uint64_t>>::iterator find(ObjectId object) {
    return std::find_if(order.begin(), order.end(),
                        [&](const auto& entry) { return entry.first == object; });
  }
  bool lookup(ObjectId object) {
    const auto it = find(object);
    if (it == order.end()) return false;
    order.splice(order.begin(), order, it);
    return true;
  }
  void insert(ObjectId object, std::uint64_t size, std::vector<ObjectId>& evicted) {
    if (lookup(object) || size > capacity) return;
    while (used + size > capacity) {
      used -= order.back().second;
      evicted.push_back(order.back().first);
      order.pop_back();
    }
    order.emplace_front(object, size);
    used += size;
  }
  void erase(ObjectId object) {
    const auto it = find(object);
    if (it == order.end()) return;
    used -= it->second;
    order.erase(it);
  }
};

// Seeded insert/lookup/erase against the list model: the same victims in
// the same order, the same contents and the same accounting after every op.
// The second phase keeps the index table small and erases heavily, so
// backward-shift deletion keeps running across the table's wrap-around.
// The presize hint may reshape the index but never the contents: where a
// phase gives it, it comes once before the first op and twice mid-stream,
// above and below the current object count. The last two phases never
// presize, so every growth rebuild runs mid-stream and the victims that
// follow check that it kept the recency order; the last one also draws
// its ids from the full 32-bit range. Every phase copies the cache once
// (a third of the way in unless the phase says otherwise), and from then
// on the source and the copy take their own op streams, each checked
// against its own copy of the model. After every op, most_recent(k) must
// list the first k objects of the model's list, for a k that cycles from 0
// past the object count.
//
// The warm phases start the cache from a PopularityImage (a shuffled order
// of the whole universe, non-unit sizes) and the model from inserting the
// same prefix least popular first. Their lookups, refreshes and erases hit
// image objects, and their evictions walk the cursor past ranks that left
// the image before they reach the overlay's tail. The last one copies
// early, while the image still holds most of its prefix.
TEST(LruCache, MatchesListReferenceUnderRandomOps) {
  struct Phase {
    std::uint64_t capacity;
    std::size_t universe;
    unsigned erase_percent;
    int ops;
    bool presize;
    bool spread;  ///< ids over the full 32-bit range instead of 0..universe-1
    bool warm = false;  ///< warm_start from an image of the whole universe
    std::size_t prefix_halves = 2;  ///< warm prefix: this many halves of the fitting one
    int copy_at = -1;               ///< the op before which to copy; -1: ops / 3
  };
  struct Track {
    std::unique_ptr<LruCache> cache;
    ReferenceLru reference;
    std::mt19937_64 rng;
  };
  for (const Phase phase : {Phase{60, 150, 10, 5'000, true, false},
                            Phase{12, 32, 45, 10'000, true, false},
                            Phase{600, 400, 5, 6'000, false, false},
                            Phase{200, 300, 20, 6'000, false, true},
                            Phase{300, 400, 10, 4'000, false, false, true},
                            Phase{100, 160, 30, 4'000, true, false, true, 1},
                            Phase{400, 300, 3, 3'000, false, false, true, 2, 40}}) {
    SCOPED_TRACE(phase.capacity);
    std::mt19937_64 rng(phase.capacity);
    std::vector<ObjectId> ids(phase.universe);
    std::vector<std::uint64_t> size_of(phase.universe);
    std::set<ObjectId> taken;
    for (std::size_t i = 0; i < phase.universe; ++i) {
      ids[i] = static_cast<ObjectId>(i);
      if (phase.spread) {
        // Both ends of the valid range first, then distinct random ids.
        ids[i] = i == 0 ? 0 : i == 1 ? kReservedId - 1 : static_cast<ObjectId>(rng());
        while (ids[i] == kReservedId || !taken.insert(ids[i]).second) {
          ids[i] = static_cast<ObjectId>(rng());
        }
      }
      size_of[i] = 1 + rng() % 7;
    }

    const auto step = [&](Track& track, int op) {
      const std::size_t i = track.rng() % phase.universe;
      const auto dice = static_cast<unsigned>(track.rng() % 100);
      std::vector<ObjectId> evicted, expected;
      if (dice < phase.erase_percent) {
        track.cache->erase(ids[i]);
        track.reference.erase(ids[i]);
      } else if (dice < phase.erase_percent + 30) {
        ASSERT_EQ(track.cache->lookup(ids[i]), track.reference.lookup(ids[i])) << "op " << op;
      } else {
        track.cache->insert(ids[i], size_of[i], evicted);
        track.reference.insert(ids[i], size_of[i], expected);
      }
      ASSERT_EQ(evicted, expected) << "op " << op;
      ASSERT_EQ(track.cache->object_count(), track.reference.order.size()) << "op " << op;
      ASSERT_EQ(track.cache->used_units(), track.reference.used) << "op " << op;
      for (const ObjectId o : ids) {
        ASSERT_EQ(track.cache->contains(o),
                  track.reference.find(o) != track.reference.order.end())
            << "op " << op << ", object " << o;
      }
      const std::size_t k = static_cast<std::size_t>(op) % (track.reference.order.size() + 2);
      std::vector<ObjectId> recent;
      track.cache->most_recent(k, recent);
      std::vector<ObjectId> first_k;
      for (const auto& entry : track.reference.order) {
        if (first_k.size() == k) break;
        first_k.push_back(entry.first);
      }
      ASSERT_EQ(recent, first_k) << "op " << op << ", k " << k;
    };

    Track source{std::make_unique<LruCache>(phase.capacity), ReferenceLru{}, rng};
    source.reference.capacity = phase.capacity;
    std::optional<Track> copy;
    if (phase.presize) source.cache->presize(phase.capacity / 4);
    if (phase.warm) {
      std::vector<ObjectId> order = ids;
      std::shuffle(order.begin(), order.end(), rng);
      const auto image = std::make_shared<const PopularityImage>(
          order, std::make_shared<const std::vector<std::uint64_t>>(size_of));
      const std::size_t prefix =
          image->fitting_prefix(phase.capacity) * phase.prefix_halves / 2;
      source.cache->warm_start(image, prefix);
      std::vector<ObjectId> evicted;
      for (std::size_t rank = prefix; rank-- > 0;) {
        source.reference.insert(order[rank], size_of[order[rank]], evicted);
      }
      ASSERT_TRUE(evicted.empty());
      ASSERT_EQ(source.cache->object_count(), prefix);
      ASSERT_EQ(source.cache->used_units(), source.reference.used);
      std::vector<ObjectId> recent;
      source.cache->most_recent(prefix + 1, recent);
      ASSERT_EQ(recent, std::vector<ObjectId>(order.begin(), order.begin() + prefix));
    }
    const int copy_at = phase.copy_at >= 0 ? phase.copy_at : phase.ops / 3;
    for (int op = 0; op < phase.ops; ++op) {
      if (op == copy_at) {
        copy.emplace(Track{std::make_unique<LruCache>(1), source.reference,
                           std::mt19937_64(~phase.capacity)});
        copy->cache->copy_from(*source.cache);
      }
      if (phase.presize && op == phase.ops / 2) {
        source.cache->presize(4 * source.cache->object_count() + 16);
        source.cache->presize(source.cache->object_count() / 2);
      }
      ASSERT_NO_FATAL_FAILURE(step(source, op));
      if (copy) {
        ASSERT_NO_FATAL_FAILURE(step(*copy, op)) << "copy";
      }
    }
  }
}

// insert refuses, before any change, the id that marks an empty bucket
// and sizes that need more than 32 bits; a refresh of a present object
// with such a size is refused too. Sizes up to 2^32 - 1 are exact.
TEST(LruCache, InsertPreconditionsThrowAndChangeNothing) {
  auto cache = make_cache(PolicyKind::Lru, 3);
  insert(*cache, 1);
  insert(*cache, 2);
  insert(*cache, 3);  // recency 3, 2, 1: 1 is the next victim
  std::vector<ObjectId> evicted;
  EXPECT_THROW(cache->insert(kReservedId, 1, evicted), std::invalid_argument);
  EXPECT_THROW(cache->insert(4, std::uint64_t{1} << 32, evicted), std::invalid_argument);
  EXPECT_THROW(cache->insert(1, std::uint64_t{1} << 32, evicted), std::invalid_argument);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache->object_count(), 3u);
  EXPECT_EQ(cache->used_units(), 3u);
  EXPECT_FALSE(cache->contains(kReservedId));
  EXPECT_FALSE(cache->lookup(kReservedId));
  cache->erase(kReservedId);
  EXPECT_EQ(cache->object_count(), 3u);
  EXPECT_EQ(insert(*cache, kReservedId - 1), std::vector<ObjectId>{1});

  constexpr std::uint64_t kLargest = (std::uint64_t{1} << 32) - 1;
  auto big = make_cache(PolicyKind::Lru, std::uint64_t{1} << 33);
  EXPECT_TRUE(insert(*big, 7, kLargest).empty());
  EXPECT_TRUE(insert(*big, 8, kLargest).empty());
  EXPECT_TRUE(insert(*big, 9, 2).empty());
  EXPECT_EQ(big->used_units(), std::uint64_t{1} << 33);
  EXPECT_EQ(insert(*big, 10, 1), std::vector<ObjectId>{7});
  EXPECT_EQ(big->used_units(), kLargest + 3);
}

// --- LFU specifics ------------------------------------------------------

TEST(LfuCache, EvictsLeastFrequent) {
  auto cache = make_cache(PolicyKind::Lfu, 3);
  insert(*cache, 1);
  insert(*cache, 2);
  insert(*cache, 3);
  EXPECT_TRUE(cache->lookup(1));
  EXPECT_TRUE(cache->lookup(1));
  EXPECT_TRUE(cache->lookup(2));
  // Frequencies: 1→3, 2→2, 3→1. Victim is 3.
  const auto evicted = insert(*cache, 4);
  EXPECT_EQ(evicted, std::vector<ObjectId>{3});
}

TEST(LfuCache, TieBreaksByRecency) {
  auto cache = make_cache(PolicyKind::Lfu, 2);
  insert(*cache, 1);
  insert(*cache, 2);  // both frequency 1; 1 is older
  const auto evicted = insert(*cache, 3);
  EXPECT_EQ(evicted, std::vector<ObjectId>{1});
}

// --- FIFO specifics -----------------------------------------------------

TEST(FifoCache, EvictsInArrivalOrder) {
  auto cache = make_cache(PolicyKind::Fifo, 3);
  insert(*cache, 1);
  insert(*cache, 2);
  insert(*cache, 3);
  EXPECT_TRUE(cache->lookup(1));  // lookups must NOT affect FIFO order
  const auto evicted = insert(*cache, 4);
  EXPECT_EQ(evicted, std::vector<ObjectId>{1});
}

TEST(FifoCache, EraseThenReinsertGetsFreshPosition) {
  auto cache = make_cache(PolicyKind::Fifo, 3);
  insert(*cache, 1);
  insert(*cache, 2);
  cache->erase(1);
  insert(*cache, 1);  // re-inserted: now newer than 2
  insert(*cache, 3);
  const auto evicted = insert(*cache, 4);
  EXPECT_EQ(evicted, std::vector<ObjectId>{2});
  EXPECT_TRUE(cache->contains(1));
}

// --- RANDOM ----------------------------------------------------------------

TEST(RandomCache, EvictsSomethingDeterministically) {
  auto a = make_cache(PolicyKind::Random, 3, 42);
  auto b = make_cache(PolicyKind::Random, 3, 42);
  for (ObjectId o = 1; o <= 10; ++o) {
    const auto ea = insert(*a, o);
    const auto eb = insert(*b, o);
    EXPECT_EQ(ea, eb);  // same seed, same victims
  }
  EXPECT_EQ(a->object_count(), 3u);
}

// --- generic invariants across bounded policies ----------------------------

class BoundedPolicy : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(BoundedPolicy, CapacityNeverExceeded) {
  auto cache = make_cache(GetParam(), 50, 1);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) {
    std::vector<ObjectId> evicted;
    cache->insert(static_cast<ObjectId>(rng() % 500), 1 + rng() % 7, evicted);
    EXPECT_LE(cache->used_units(), 50u);
  }
}

TEST_P(BoundedPolicy, EvictionReportingIsExact) {
  // Track membership via the eviction reports alone; it must match the
  // cache's own contains(). insert returns true exactly when it admits.
  auto cache = make_cache(GetParam(), 20, 2);
  std::set<ObjectId> shadow;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 3000; ++i) {
    const auto object = static_cast<ObjectId>(rng() % 100);
    std::vector<ObjectId> evicted;
    const bool held = cache->contains(object);
    EXPECT_EQ(cache->insert(object, 1, evicted), !held) << "insert reports an admission";
    shadow.insert(object);
    for (const ObjectId e : evicted) {
      EXPECT_EQ(shadow.erase(e), 1u) << "evicted object was not a member";
    }
  }
  EXPECT_EQ(shadow.size(), cache->object_count());
  for (const ObjectId o : shadow) EXPECT_TRUE(cache->contains(o));
}

TEST_P(BoundedPolicy, LookupMissDoesNotInsert) {
  auto cache = make_cache(GetParam(), 10, 3);
  EXPECT_FALSE(cache->lookup(7));
  EXPECT_EQ(cache->object_count(), 0u);
}

TEST_P(BoundedPolicy, EraseIsIdempotent) {
  auto cache = make_cache(GetParam(), 10, 4);
  insert(*cache, 5);
  cache->erase(5);
  cache->erase(5);
  EXPECT_FALSE(cache->contains(5));
  EXPECT_EQ(cache->used_units(), 0u);
}

TEST_P(BoundedPolicy, ZeroCapacityAdmitsNothing) {
  auto cache = make_cache(GetParam(), 0, 5);
  EXPECT_TRUE(insert(*cache, 1).empty());
  EXPECT_FALSE(cache->contains(1));
}

INSTANTIATE_TEST_SUITE_P(AllBounded, BoundedPolicy,
                         ::testing::Values(PolicyKind::Lru, PolicyKind::Lfu,
                                           PolicyKind::Fifo, PolicyKind::Random),
                         [](const auto& info) { return to_string(info.param); });


// --- admission filtering (doorkeeper) -------------------------------------

TEST(AdmissionFilter, AdmitsFreelyUntilFull) {
  auto filtered = std::make_unique<AdmissionFilteredCache>(
      make_cache(PolicyKind::Lru, 4), 128);
  std::vector<ObjectId> evicted;
  for (ObjectId o = 0; o < 4; ++o) filtered->insert(o, 1, evicted);
  EXPECT_EQ(filtered->object_count(), 4u);
  EXPECT_EQ(filtered->rejections(), 0u);
}

TEST(AdmissionFilter, RejectsFirstSightingUnderPressure) {
  auto filtered = std::make_unique<AdmissionFilteredCache>(
      make_cache(PolicyKind::Lru, 2), 128);
  std::vector<ObjectId> evicted;
  filtered->insert(10, 1, evicted);
  filtered->insert(11, 1, evicted);  // full now
  filtered->insert(12, 1, evicted);  // first sighting under pressure: rejected
  EXPECT_FALSE(filtered->contains(12));
  EXPECT_EQ(filtered->rejections(), 1u);
  filtered->insert(12, 1, evicted);  // second sighting: admitted
  EXPECT_TRUE(filtered->contains(12));
}

TEST(AdmissionFilter, RefreshesExistingWithoutDoorkeeper) {
  auto filtered = std::make_unique<AdmissionFilteredCache>(
      make_cache(PolicyKind::Lru, 2), 128);
  std::vector<ObjectId> evicted;
  filtered->insert(1, 1, evicted);
  filtered->insert(2, 1, evicted);
  filtered->insert(1, 1, evicted);  // refresh: 1 becomes MRU
  filtered->insert(3, 1, evicted);  // rejected (first sighting)
  filtered->insert(3, 1, evicted);  // admitted, evicts LRU = 2
  EXPECT_TRUE(filtered->contains(1));
  EXPECT_FALSE(filtered->contains(2));
}

TEST(AdmissionFilter, ShieldsAgainstOneHitWonders) {
  // A scan of unique objects must not destroy the hot set.
  auto filtered = std::make_unique<AdmissionFilteredCache>(
      make_cache(PolicyKind::Lru, 8), 1024);
  std::vector<ObjectId> evicted;
  for (ObjectId o = 0; o < 8; ++o) filtered->insert(o, 1, evicted);
  for (ObjectId scan = 1000; scan < 2000; ++scan) filtered->insert(scan, 1, evicted);
  int survivors = 0;
  for (ObjectId o = 0; o < 8; ++o) survivors += filtered->contains(o);
  EXPECT_EQ(survivors, 8);  // every scan object was a first sighting
  EXPECT_EQ(filtered->rejections(), 1000u);
}

TEST(AdmissionFilter, InvalidConstructionThrows) {
  EXPECT_THROW(AdmissionFilteredCache(nullptr, 16), std::invalid_argument);
  EXPECT_THROW(AdmissionFilteredCache(make_cache(PolicyKind::Lru, 2), 0),
               std::invalid_argument);
}

// --- copy_from ------------------------------------------------------------
//
// The warm start's contract: a cache that copies a source filled with a
// fitting prefix behaves exactly like a cache that took the same inserts.
// A (seed 1) and C (seed 2) take one prefix by inserts, and B (seed 2)
// copies A. One seeded stream of lookups, evicting inserts and erases then
// drives B and C, which must agree on every victim, every contains() and
// the accounting after every op. RANDOM passes only because B keeps its
// own generator: with A's (seed 1) it picks other victims.
//
// The padding of the parameter is spelled out as zeros. gtest lists a
// parameter without a PrintTo as its raw bytes and ctest names each test
// after that listing, so padding left to the stack put whatever it held
// (often the top byte of a randomised address) into the test names, which
// then changed from one build to the next.

struct CopyCase {
  PolicyKind kind;
  bool doorkeeper;
  std::uint8_t zero_padding[3];
};
static_assert(std::has_unique_object_representations_v<CopyCase>);

std::unique_ptr<Cache> make_copy_case(const CopyCase& c, std::uint64_t capacity,
                                      std::uint64_t seed) {
  auto cache = make_cache(c.kind, capacity, seed);
  if (!c.doorkeeper) return cache;
  return std::make_unique<AdmissionFilteredCache>(std::move(cache), 64);
}

class CopyFrom : public ::testing::TestWithParam<CopyCase> {};

TEST_P(CopyFrom, CopyDrivesLikeTheInsertPath) {
  constexpr std::uint64_t kCapacity = 40;
  constexpr ObjectId kUniverse = 120;
  std::mt19937_64 rng(0xc0b1);
  std::vector<std::uint64_t> size_of(kUniverse);
  for (std::uint64_t& size : size_of) size = 1 + rng() % 4;

  const auto fill = [&](Cache& cache, ObjectId first) {
    std::uint64_t used = 0;
    for (ObjectId o = first; used + size_of[o] <= kCapacity; ++o) {
      used += size_of[o];
      ASSERT_TRUE(insert(cache, o, size_of[o]).empty()) << "the prefix must fit";
    }
  };
  auto a = make_copy_case(GetParam(), kCapacity, 1);
  auto c = make_copy_case(GetParam(), kCapacity, 2);
  fill(*a, 0);
  fill(*c, 0);
  auto b = make_copy_case(GetParam(), kCapacity, 2);
  b->copy_from(*a);

  // Every other policy, bare or behind a doorkeeper, is a mismatch: the
  // call throws and B keeps A's state, which the op stream then checks.
  for (const PolicyKind kind : {PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::Fifo,
                                PolicyKind::Random}) {
    for (const bool doorkeeper : {false, true}) {
      if (kind == GetParam().kind && doorkeeper == GetParam().doorkeeper) continue;
      auto other = make_copy_case(CopyCase{kind, doorkeeper, {}}, kCapacity, 3);
      fill(*other, 60);
      EXPECT_THROW(b->copy_from(*other), std::invalid_argument)
          << to_string(kind) << (doorkeeper ? " with doorkeeper" : "");
    }
  }

  for (int op = 0; op < 5'000; ++op) {
    const auto object = static_cast<ObjectId>(rng() % kUniverse);
    const auto dice = static_cast<unsigned>(rng() % 100);
    std::vector<ObjectId> evicted, expected;
    if (dice < 10) {
      b->erase(object);
      c->erase(object);
    } else if (dice < 45) {
      ASSERT_EQ(b->lookup(object), c->lookup(object)) << "op " << op;
    } else {
      b->insert(object, size_of[object], evicted);
      c->insert(object, size_of[object], expected);
    }
    ASSERT_EQ(evicted, expected) << "op " << op;
    ASSERT_EQ(b->object_count(), c->object_count()) << "op " << op;
    ASSERT_EQ(b->used_units(), c->used_units()) << "op " << op;
    for (ObjectId o = 0; o < kUniverse; ++o) {
      ASSERT_EQ(b->contains(o), c->contains(o)) << "op " << op << ", object " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CopyFrom,
    ::testing::Values(CopyCase{PolicyKind::Lru, false, {}},
                      CopyCase{PolicyKind::Lfu, false, {}},
                      CopyCase{PolicyKind::Fifo, false, {}},
                      CopyCase{PolicyKind::Random, false, {}},
                      CopyCase{PolicyKind::Lru, true, {}}),
    [](const auto& info) {
      return to_string(info.param.kind) + (info.param.doorkeeper ? "_Doorkeeper" : "");
    });

// --- warm_start -------------------------------------------------------------
//
// warm_start(image, prefix) must leave a cache exactly where inserting the
// prefix least popular first leaves it: A warm-starts and B takes the
// inserts (same seed), and one seeded stream of lookups, evicting inserts
// and erases then drives both, which must agree on every victim, every
// contains() and the accounting after every op. C copies A before the
// stream and must agree too. LruCache keeps a reference to the image; the
// other policies and the doorkeeper fill by inserts.

class WarmStart : public ::testing::TestWithParam<CopyCase> {};

TEST_P(WarmStart, MatchesTheInsertLoop) {
  constexpr std::uint64_t kCapacity = 60;
  constexpr ObjectId kUniverse = 150;
  std::mt19937_64 rng(0x3a7e);
  auto sizes = std::make_shared<std::vector<std::uint64_t>>(kUniverse);
  for (std::uint64_t& size : *sizes) size = 1 + rng() % 4;
  std::vector<ObjectId> order(kUniverse);
  for (ObjectId o = 0; o < kUniverse; ++o) order[o] = o;
  std::shuffle(order.begin(), order.end(), rng);
  const auto image = std::make_shared<const PopularityImage>(order, sizes);
  const std::size_t prefix = image->fitting_prefix(kCapacity);
  ASSERT_GT(prefix, 10u);

  auto a = make_copy_case(GetParam(), kCapacity, 1);
  auto b = make_copy_case(GetParam(), kCapacity, 1);
  auto c = make_copy_case(GetParam(), kCapacity, 1);
  a->warm_start(image, prefix);
  for (std::size_t rank = prefix; rank-- > 0;) {
    ASSERT_TRUE(insert(*b, order[rank], (*sizes)[order[rank]]).empty());
  }
  c->copy_from(*a);

  const auto same = [&](const Cache& x, const Cache& y, int op) {
    ASSERT_EQ(x.object_count(), y.object_count()) << "op " << op;
    ASSERT_EQ(x.used_units(), y.used_units()) << "op " << op;
    for (ObjectId o = 0; o < kUniverse; ++o) {
      ASSERT_EQ(x.contains(o), y.contains(o)) << "op " << op << ", object " << o;
    }
    const auto* dx = dynamic_cast<const AdmissionFilteredCache*>(&x);
    const auto* dy = dynamic_cast<const AdmissionFilteredCache*>(&y);
    ASSERT_EQ(dx == nullptr, dy == nullptr);
    if (dx != nullptr) {
      ASSERT_EQ(dx->admissions(), dy->admissions()) << "op " << op;
      ASSERT_EQ(dx->rejections(), dy->rejections()) << "op " << op;
    }
  };
  ASSERT_NO_FATAL_FAILURE(same(*a, *b, -1));
  for (int op = 0; op < 4'000; ++op) {
    const auto object = static_cast<ObjectId>(rng() % kUniverse);
    const auto dice = static_cast<unsigned>(rng() % 100);
    std::vector<ObjectId> evicted, expected, copied;
    if (dice < 10) {
      a->erase(object);
      b->erase(object);
      c->erase(object);
    } else if (dice < 45) {
      const bool hit = b->lookup(object);
      ASSERT_EQ(a->lookup(object), hit) << "op " << op;
      ASSERT_EQ(c->lookup(object), hit) << "op " << op;
    } else {
      const bool admitted = b->insert(object, (*sizes)[object], expected);
      ASSERT_EQ(a->insert(object, (*sizes)[object], evicted), admitted) << "op " << op;
      ASSERT_EQ(c->insert(object, (*sizes)[object], copied), admitted) << "op " << op;
    }
    ASSERT_EQ(evicted, expected) << "op " << op;
    ASSERT_EQ(copied, expected) << "op " << op;
    ASSERT_NO_FATAL_FAILURE(same(*a, *b, op));
    ASSERT_NO_FATAL_FAILURE(same(*c, *b, op));
  }
}

// warm_start refuses, before any change: a null image, a cache that holds
// an object, a prefix longer than the image and a prefix that does not
// fit; LruCache also refuses an object its insert refuses (a size over 32
// bits; the reserved id cannot be in an image, which needs a size for each
// object). A refused cache still warm-starts afterwards.
TEST_P(WarmStart, RefusalsThrowAndChangeNothing) {
  auto sizes = std::make_shared<std::vector<std::uint64_t>>(std::vector<std::uint64_t>{
      4, 3, 2, 2, 1});
  const auto image = std::make_shared<const PopularityImage>(
      std::vector<ObjectId>{3, 1, 4, 0, 2}, sizes);  // sizes in order: 2 3 1 4 2
  EXPECT_EQ(image->fitting_prefix(6), 3u);
  EXPECT_EQ(image->fitting_prefix(12), 5u);
  EXPECT_EQ(image->rank_of(4), 2u);
  EXPECT_EQ(image->rank_of(5), PopularityImage::kNoRank);

  auto empty = make_copy_case(GetParam(), 6, 1);
  EXPECT_THROW(empty->warm_start(nullptr, 0), std::invalid_argument);
  EXPECT_THROW(empty->warm_start(image, 6), std::invalid_argument);
  EXPECT_THROW(empty->warm_start(image, 4), std::invalid_argument);  // 10 units > 6
  EXPECT_EQ(empty->object_count(), 0u);
  EXPECT_EQ(empty->used_units(), 0u);
  for (ObjectId o = 0; o < 5; ++o) EXPECT_FALSE(empty->contains(o)) << o;
  empty->warm_start(image, 3);
  EXPECT_EQ(empty->object_count(), 3u);
  EXPECT_EQ(empty->used_units(), 6u);

  auto held = make_copy_case(GetParam(), 6, 1);
  insert(*held, 2, 2);
  EXPECT_THROW(held->warm_start(image, 1), std::invalid_argument);
  EXPECT_EQ(held->object_count(), 1u);
  EXPECT_EQ(held->used_units(), 2u);
  EXPECT_TRUE(held->contains(2));
  EXPECT_FALSE(held->contains(3));

  if (GetParam().kind == PolicyKind::Lru && !GetParam().doorkeeper) {
    const auto big = std::make_shared<const PopularityImage>(
        std::vector<ObjectId>{0, 1},
        std::make_shared<const std::vector<std::uint64_t>>(
            std::vector<std::uint64_t>{1, std::uint64_t{1} << 32}));
    auto lru = make_cache(PolicyKind::Lru, std::uint64_t{1} << 33);
    EXPECT_THROW(lru->warm_start(big, 2), std::invalid_argument);
    EXPECT_EQ(lru->object_count(), 0u);
    EXPECT_EQ(lru->used_units(), 0u);
    EXPECT_FALSE(lru->contains(0));
    lru->warm_start(big, 1);
    EXPECT_TRUE(lru->contains(0));
  }

  // An image needs a size for each object of its order, once each.
  EXPECT_THROW(PopularityImage({0, 5}, sizes), std::invalid_argument);
  EXPECT_THROW(PopularityImage({kReservedId}, sizes), std::invalid_argument);
  EXPECT_THROW(PopularityImage({1, 2, 1}, sizes), std::invalid_argument);
  EXPECT_THROW(PopularityImage({1}, nullptr), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, WarmStart,
    ::testing::Values(CopyCase{PolicyKind::Lru, false, {}}, CopyCase{PolicyKind::Lfu, false, {}},
                      CopyCase{PolicyKind::Fifo, false, {}},
                      CopyCase{PolicyKind::Random, false, {}},
                      CopyCase{PolicyKind::Lru, true, {}}, CopyCase{PolicyKind::Lfu, true, {}},
                      CopyCase{PolicyKind::Fifo, true, {}},
                      CopyCase{PolicyKind::Random, true, {}}),
    [](const auto& info) {
      return to_string(info.param.kind) + (info.param.doorkeeper ? "_Doorkeeper" : "");
    });

// --- budget provisioning ---------------------------------------------------

TEST(Budget, UniformGivesEveryRouterTheSame) {
  using namespace idicn::topology;
  const HierarchicalNetwork net(make_abilene(), AccessTreeShape(2, 2));
  const BudgetPlan plan = compute_budget(net, 0.05, 1000, BudgetSplit::Uniform);
  ASSERT_EQ(plan.per_node.size(), net.node_count());
  for (const std::uint64_t b : plan.per_node) EXPECT_EQ(b, 50u);
  EXPECT_EQ(plan.total(), 50u * net.node_count());
}

TEST(Budget, ProportionalFollowsPopulation) {
  using namespace idicn::topology;
  const HierarchicalNetwork net(make_abilene(), AccessTreeShape(2, 2));
  const BudgetPlan plan =
      compute_budget(net, 0.05, 10000, BudgetSplit::PopulationProportional);
  // New York (pop 19.8M) must out-provision Sunnyvale (1.9M) ~10×.
  const std::uint64_t ny = plan.per_node[net.global_node(10, 0)];
  const std::uint64_t sunnyvale = plan.per_node[net.global_node(1, 0)];
  EXPECT_GT(ny, sunnyvale * 8);
  // Equal split within a PoP.
  for (idicn::topology::TreeIndex t = 1; t < net.tree().node_count(); ++t) {
    EXPECT_EQ(plan.per_node[net.global_node(10, t)], ny);
  }
  // Totals approximately preserved (rounding only).
  const double expected = 0.05 * static_cast<double>(net.node_count()) * 10000.0;
  EXPECT_NEAR(static_cast<double>(plan.total()), expected, expected * 0.01);
}

TEST(Budget, NegativeFractionThrows) {
  using namespace idicn::topology;
  const HierarchicalNetwork net(make_abilene(), AccessTreeShape(2, 2));
  EXPECT_THROW(compute_budget(net, -0.1, 100, BudgetSplit::Uniform),
               std::invalid_argument);
}

}  // namespace
