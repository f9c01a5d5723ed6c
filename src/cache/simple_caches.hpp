// FIFO and RANDOM caches: ablation baselines (bench_ablation_policies).
#pragma once

#include <random>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"

namespace idicn::cache {

/// First-in first-out eviction; lookups do not affect order.
class FifoCache final : public Cache {
public:
  explicit FifoCache(std::uint64_t capacity);

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
    std::uint64_t size = 0;
    std::uint64_t seq = 0;  // sequence of the live queue entry for this object
  };

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t next_seq_ = 0;
  // Arrival order; entries whose seq no longer matches entries_ are stale
  // (the object was erased, possibly re-inserted) and skipped on eviction.
  std::vector<std::pair<ObjectId, std::uint64_t>> queue_;
  std::size_t queue_head_ = 0;
  std::unordered_map<ObjectId, Entry> entries_;
};

/// Uniform-random eviction.
class RandomCache final : public Cache {
public:
  RandomCache(std::uint64_t capacity, std::uint64_t seed);

  [[nodiscard]] bool lookup(ObjectId object) override;
  [[nodiscard]] bool contains(ObjectId object) const override;
  bool insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override;
  /// Copies everything but the generator: this cache keeps its own seed.
  void copy_from(const Cache& source) override;

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return members_.size();
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return capacity_;
  }

private:
  struct Member {
    std::size_t position = 0;  // index into objects_
    std::uint64_t size = 0;
  };

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::mt19937_64 rng_;
  std::vector<ObjectId> objects_;
  std::unordered_map<ObjectId, Member> members_;
};

}  // namespace idicn::cache
