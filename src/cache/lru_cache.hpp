// LRU cache — the paper's baseline replacement policy.
//
// Entries live in the index itself: one flat open-addressing table of
// 16-byte entries {object, size, prev, next}, whose prev/next fields
// thread the recency list (head = most recent) through bucket indices.
// Lookups probe linearly from a multiplicative hash that a multiply-shift
// maps onto the table, so the table may have any size; doubling keeps the
// load at or below 3/4. Deletion shifts later entries of the probe run
// back (no tombstones build up under eviction churn) and re-points the
// list neighbours of every entry it moves. Growth rebuilds the table by
// walking the list oldest-first, so recency order carries over.
// presize(n) allocates, in one step, the fewest buckets that hold n
// objects within that load. All operations are O(1) expected; the hot path
// allocates nothing once the table has grown.
//
// The entry layout sets insert's preconditions (cache.hpp): kEmpty marks
// an empty bucket, so it is no object's id, and a size must fit 32 bits.
#pragma once

#include <limits>
#include <vector>

#include "cache/cache.hpp"

namespace idicn::cache {

class LruCache final : public Cache {
public:
  explicit LruCache(std::uint64_t capacity);

  [[nodiscard]] bool lookup(ObjectId object) override;
  [[nodiscard]] bool contains(ObjectId object) const override;
  void insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override;
  void presize(std::size_t objects) override;
  void copy_from(const Cache& source) override;

  [[nodiscard]] std::size_t object_count() const noexcept override { return count_; }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return capacity_;
  }

private:
  /// The id that marks an empty bucket; insert refuses it.
  static constexpr ObjectId kEmpty = std::numeric_limits<ObjectId>::max();
  /// The largest size an entry holds; insert refuses larger ones.
  static constexpr std::uint64_t kMaxSize = std::numeric_limits<std::uint32_t>::max();
  /// No bucket: the end of the recency list.
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    ObjectId object = kEmpty;
    std::uint32_t size = 0;
    std::uint32_t prev = kNil;  // more recent neighbour's bucket
    std::uint32_t next = kNil;  // less recent neighbour's bucket
  };
  static_assert(sizeof(Entry) == 16);

  void unlink(std::uint32_t bucket) noexcept;
  void link_front(std::uint32_t bucket) noexcept;
  void evict_lru(std::vector<ObjectId>& evicted);

  [[nodiscard]] std::size_t home_of(ObjectId object) const noexcept;
  /// The bucket holding `object`, or the empty bucket ending its probe run.
  [[nodiscard]] std::size_t find_bucket(ObjectId object) const noexcept;
  /// Unlink and empty `bucket`, shifting later entries of its probe run back.
  void remove_bucket(std::uint32_t bucket) noexcept;
  /// Re-enter every entry into a fresh table of `buckets`, oldest first.
  void rebuild(std::size_t buckets);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::size_t count_ = 0;
  std::vector<Entry> table_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
};

}  // namespace idicn::cache
