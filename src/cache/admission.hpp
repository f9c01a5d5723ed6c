// Admission filtering ("doorkeeper") — a classic web-caching refinement.
//
// Under heavy one-hit-wonder traffic, inserting every miss churns useful
// content out of small caches. A doorkeeper admits an object only on its
// second sighting within a recent horizon, approximated here with a
// fixed-size hash table of recently seen ids (new sightings overwrite
// colliding slots, giving a bounded-memory, sliding-recency filter).
//
// Admission control only matters once the cache is under eviction
// pressure, so inserts are unfiltered while the cache still has free
// space — this also keeps steady-state prefill effective.
//
// Exposed as a decorator over any Cache so it composes with every policy;
// bench_ablation_decisions uses it to test whether smarter admission
// changes the paper's EDGE-vs-ICN picture.
#pragma once

#include <memory>
#include <vector>

#include "cache/cache.hpp"

namespace idicn::cache {

class AdmissionFilteredCache final : public Cache {
public:
  /// Wrap `inner`; the doorkeeper remembers ~`doorkeeper_slots` recent ids.
  AdmissionFilteredCache(std::unique_ptr<Cache> inner, std::size_t doorkeeper_slots);

  [[nodiscard]] bool lookup(ObjectId object) override { return inner_->lookup(object); }
  [[nodiscard]] bool contains(ObjectId object) const override {
    return inner_->contains(object);
  }
  bool insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override { inner_->erase(object); }
  void presize(std::size_t objects) override { inner_->presize(objects); }
  /// Copies the doorkeeper and the counters, and forwards to the inner
  /// cache, whose policy must match `source`'s inner policy.
  void copy_from(const Cache& source) override;

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return inner_->object_count();
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override {
    return inner_->used_units();
  }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return inner_->capacity_units();
  }

  [[nodiscard]] std::uint64_t admissions() const noexcept { return admissions_; }
  [[nodiscard]] std::uint64_t rejections() const noexcept { return rejections_; }

private:
  /// True when `object` was seen recently (and records this sighting).
  bool seen_recently(ObjectId object);

  std::unique_ptr<Cache> inner_;
  std::vector<ObjectId> slots_;     // slot value kSlotEmpty = vacant
  std::uint64_t admissions_ = 0;
  std::uint64_t rejections_ = 0;

  static constexpr ObjectId kSlotEmpty = static_cast<ObjectId>(-1);
};

}  // namespace idicn::cache
