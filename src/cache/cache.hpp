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
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace idicn::cache {

using ObjectId = std::uint32_t;

enum class PolicyKind { Lru, Lfu, Fifo, Random, Infinite };

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

  [[nodiscard]] virtual std::size_t object_count() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t used_units() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t capacity_units() const noexcept = 0;

protected:
  Cache() = default;
};

/// Create a cache of the given policy. `seed` is used only by Random.
/// A zero capacity yields a cache that admits nothing (still valid).
[[nodiscard]] std::unique_ptr<Cache> make_cache(PolicyKind kind, std::uint64_t capacity,
                                                std::uint64_t seed = 0);

}  // namespace idicn::cache
