// Cache policy interface.
//
// Every cache-equipped router in the simulation holds one Cache instance.
// The paper's baseline policy is LRU ("LRU performs near-optimally in
// practical scenarios", §3); LFU is reported to be qualitatively similar,
// and we also provide FIFO and RANDOM for the ablation bench.
//
// Capacities are expressed in abstract units. In the baseline experiments
// every object occupies 1 unit (the paper provisions caches as a fraction
// of the object universe); the heterogeneous-object-size variation (§5)
// passes real byte sizes instead.
//
// Besides the per-request operations, a cache can take another cache's
// whole state with copy_from (same policy only; see its contract for
// RandomCache's generator), which the simulator's warm start uses to fill
// a group of identical caches from one.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace idicn::cache {

using ObjectId = std::uint32_t;

enum class PolicyKind { Lru, Lfu, Fifo, Random };

[[nodiscard]] std::string to_string(PolicyKind kind);

/// Abstract bounded content store.
class Cache {
public:
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Look up `object`; a hit updates the policy's recency/frequency state.
  [[nodiscard]] virtual bool lookup(ObjectId object) = 0;

  /// Presence test without policy side effects.
  [[nodiscard]] virtual bool contains(ObjectId object) const = 0;

  /// Insert `object` with the given size, evicting as needed. Objects
  /// evicted by this call are appended to `evicted` (so callers — e.g. the
  /// nearest-replica holder index — can observe them). Inserting an object
  /// already present only refreshes its policy state. Objects larger than
  /// the total capacity are not admitted.
  ///
  /// LRU keeps each entry in 16 bytes, which sets two preconditions: the
  /// id is not std::numeric_limits<ObjectId>::max() (it marks an empty
  /// bucket), and the size is below 2^32. A call that breaks either
  /// throws std::invalid_argument before any change, a refresh included.
  /// lookup, contains and erase take that id as an absent object.
  virtual void insert(ObjectId object, std::uint64_t size,
                      std::vector<ObjectId>& evicted) = 0;

  /// Remove `object` if present.
  virtual void erase(ObjectId object) = 0;

  /// Hint that the cache is about to hold about `objects` objects (the
  /// simulator's warm start passes the size of the prefix it will insert),
  /// so a policy may size its internal tables once instead of growing them
  /// step by step. It is only a hint: it never changes contents, recency
  /// or victim order, and a count below the current object count is
  /// harmless. The default does nothing.
  virtual void presize(std::size_t /*objects*/) {}

  /// Become a member-wise copy of `source`: its contents, policy state,
  /// accounting and capacity (the simulator's warm start fills one cache
  /// per group of identical caches and copies it to the rest). `source`
  /// must be the same policy, wrapper included; otherwise this throws
  /// std::invalid_argument and leaves this cache unchanged. A policy that
  /// draws random numbers (RandomCache) keeps its own generator, so the
  /// copy behaves exactly like a cache that received the source's inserts
  /// only while the source has never drawn from its generator, i.e. has
  /// never evicted.
  virtual void copy_from(const Cache& source) = 0;

  [[nodiscard]] virtual std::size_t object_count() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t used_units() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t capacity_units() const noexcept = 0;

protected:
  Cache() = default;

  /// `source` as the calling policy's own type, for copy_from; throws
  /// std::invalid_argument when it is another policy.
  template <typename Policy>
  [[nodiscard]] static const Policy& same_policy(const Cache& source) {
    const auto* typed = dynamic_cast<const Policy*>(&source);
    if (typed == nullptr) {
      throw std::invalid_argument("Cache::copy_from: source is another policy");
    }
    return *typed;
  }
};

/// Create a cache of the given policy. `seed` is used only by Random.
/// A zero capacity yields a cache that admits nothing (still valid).
[[nodiscard]] std::unique_ptr<Cache> make_cache(PolicyKind kind, std::uint64_t capacity,
                                                std::uint64_t seed = 0);

}  // namespace idicn::cache
