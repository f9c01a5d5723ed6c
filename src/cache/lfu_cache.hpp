// LFU cache (least frequently used, LRU tie-break).
//
// §3 of the paper: "We also tried LFU, which yielded qualitatively similar
// results" — this policy backs that ablation (bench_ablation_policies).
// Eviction order is (frequency, last-use age), both ascending, maintained
// in an ordered set; operations are O(log n).
#pragma once

#include <set>
#include <tuple>
#include <unordered_map>

#include "cache/cache.hpp"

namespace idicn::cache {

class LfuCache final : public Cache {
public:
  explicit LfuCache(std::uint64_t capacity);

  [[nodiscard]] bool lookup(ObjectId object) override;
  [[nodiscard]] bool contains(ObjectId object) const override;
  bool insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override;
  void copy_from(const Cache& source) override;

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return entries_.size();
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return capacity_;
  }

private:
  struct Entry {
    std::uint64_t frequency = 0;
    std::uint64_t age = 0;  // logical clock of last touch
    std::uint64_t size = 0;
  };
  using OrderKey = std::tuple<std::uint64_t, std::uint64_t, ObjectId>;

  void touch(ObjectId object, Entry& entry);
  void evict_one(std::vector<ObjectId>& evicted);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t clock_ = 0;
  std::unordered_map<ObjectId, Entry> entries_;
  std::set<OrderKey> order_;  // ascending (freq, age, object): begin() = victim
};

}  // namespace idicn::cache
