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
// Besides the per-request operations, a cache can start warm from a
// popularity image (warm_start) and take another cache's whole state with
// copy_from (same policy only; see its contract for RandomCache's
// generator). The simulator's warm start uses both: one warm_start per
// group of identical caches, and a copy_from for every other member.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <memory_resource>
#include <stdexcept>
#include <string>
#include <vector>

namespace idicn::cache {

using ObjectId = std::uint32_t;

enum class PolicyKind { Lru, Lfu, Fifo, Random };

[[nodiscard]] std::string to_string(PolicyKind kind);

/// A popularity order for warm starts: the objects from most to least
/// popular, each object's rank in that order and each object's size. The
/// caches that warm from one order share one image through
/// std::shared_ptr<const PopularityImage>, and images may share one size
/// array.
class PopularityImage {
public:
  /// rank_of's answer for an object outside the order.
  static constexpr std::uint32_t kNoRank = std::numeric_limits<std::uint32_t>::max();

  /// `(*sizes)[o]` is object o's size. Throws std::invalid_argument when
  /// `sizes` is null, an object of `order` has no size (its id is not below
  /// sizes->size()) or appears twice, or the order holds kNoRank objects
  /// or more.
  PopularityImage(std::vector<ObjectId> order,
                  std::shared_ptr<const std::vector<std::uint64_t>> sizes);

  /// The number of objects in the order.
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] ObjectId object_at(std::size_t rank) const { return order_[rank]; }
  [[nodiscard]] std::uint32_t rank_of(ObjectId object) const noexcept {
    return object < rank_.size() ? rank_[object] : kNoRank;
  }
  [[nodiscard]] std::uint64_t size_of(ObjectId object) const { return (*sizes_)[object]; }
  /// The longest prefix of the order whose sizes sum to at most `capacity`.
  [[nodiscard]] std::size_t fitting_prefix(std::uint64_t capacity) const noexcept;

private:
  std::vector<ObjectId> order_;
  std::vector<std::uint32_t> rank_;  ///< by object id, kNoRank outside the order
  std::shared_ptr<const std::vector<std::uint64_t>> sizes_;
};

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
  /// the total capacity are not admitted. Returns true when this call
  /// admitted the object, i.e. it was absent and is now held.
  ///
  /// LRU keeps each entry in 16 bytes, which sets two preconditions: the
  /// id is not std::numeric_limits<ObjectId>::max() (it marks an empty
  /// bucket), and the size is below 2^32. A call that breaks either
  /// throws std::invalid_argument before any change, a refresh included.
  /// lookup, contains and erase take that id as an absent object.
  virtual bool insert(ObjectId object, std::uint64_t size,
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

  /// Fill this empty cache with the `prefix` most popular objects of
  /// `image`, leaving it as if they had been inserted least popular first
  /// (the most popular ends most recent). The prefix must fit, so the fill
  /// never evicts or draws random numbers. Throws std::invalid_argument,
  /// before any change, when `image` is null, this cache holds an object,
  /// `prefix` exceeds the image, or the prefix's sizes sum to more than
  /// the capacity. The default calls presize(prefix) and then inserts the
  /// prefix; LruCache keeps a reference to the image instead, and refuses
  /// a prefix with an object its insert refuses (lru_cache.hpp).
  virtual void warm_start(std::shared_ptr<const PopularityImage> image, std::size_t prefix);

  /// Become a member-wise copy of `source`: its contents, policy state,
  /// accounting and capacity (the simulator's warm start fills one cache
  /// per group of identical caches and copies it to the rest). `source`
  /// must be the same policy, wrapper included; otherwise this throws
  /// std::invalid_argument and leaves this cache unchanged. A policy that
  /// draws random numbers (RandomCache) keeps its own generator, so the
  /// copy behaves exactly like a cache that received the source's inserts
  /// only while the source has never drawn from its generator, i.e. has
  /// never evicted. The cost is a copy of the policy's tables; a
  /// warm-started LruCache shares the source's image and copies only its
  /// bitset of one bit per prefix object and the objects touched since.
  virtual void copy_from(const Cache& source) = 0;

  [[nodiscard]] virtual std::size_t object_count() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t used_units() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t capacity_units() const noexcept = 0;

protected:
  Cache() = default;

  /// The units of `image`'s first `prefix` objects, after warm_start's
  /// checks (its contract); also refuses an object larger than
  /// `max_size`. Throws std::invalid_argument.
  [[nodiscard]] std::uint64_t warm_start_units(
      const PopularityImage* image, std::size_t prefix,
      std::uint64_t max_size = std::numeric_limits<std::uint64_t>::max()) const;

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
/// `memory` serves LRU's tables and must outlive the cache (a simulator
/// passes one pool for all its caches); the other policies ignore it.
[[nodiscard]] std::unique_ptr<Cache> make_cache(
    PolicyKind kind, std::uint64_t capacity, std::uint64_t seed = 0,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

}  // namespace idicn::cache
