// LRU cache — the paper's baseline replacement policy.
//
// Objects live in slots of a contiguous vector, threaded on an intrusive
// doubly-linked recency list (head = most recent). The index from object id
// to slot is a flat open-addressing table of slot indices: power-of-two
// size, linear probing from a multiplicative hash, load kept at or below
// 1/2 by doubling, and backward-shift deletion, so no tombstones build up
// under eviction churn. All operations are O(1) expected; the hot path
// allocates nothing after warm-up (the slot vector, free list and table
// only grow). presize(n) reserves n slots and allocates the table at the
// size doubling would reach for n objects, the smallest power of two
// >= 2n, in one step.
#pragma once

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

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return capacity_;
  }

private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  struct Slot {
    ObjectId object = 0;
    std::uint64_t size = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void unlink(std::uint32_t slot) noexcept;
  void link_front(std::uint32_t slot) noexcept;
  void evict_lru(std::vector<ObjectId>& evicted);

  // --- index: table_[i] is a slot index, or kNil for an empty bucket ------
  [[nodiscard]] std::size_t home_of(ObjectId object) const noexcept;
  /// The bucket holding `object`, or the empty bucket ending its probe run.
  [[nodiscard]] std::size_t find_bucket(ObjectId object) const noexcept;
  /// Empty `bucket`, shifting later entries of its probe run back.
  void erase_bucket(std::size_t bucket) noexcept;
  /// Rehash every entry into a fresh table of `buckets` (a power of two).
  void resize_table(std::size_t buckets);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  std::vector<std::uint32_t> table_;
  unsigned table_shift_ = 0;  // 64 − log2(table_.size())
};

}  // namespace idicn::cache
