#include "cache/admission.hpp"

#include <stdexcept>

namespace idicn::cache {

AdmissionFilteredCache::AdmissionFilteredCache(std::unique_ptr<Cache> inner,
                                               std::size_t doorkeeper_slots)
    : inner_(std::move(inner)), slots_(doorkeeper_slots, kSlotEmpty) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("AdmissionFilteredCache: null inner cache");
  }
  if (doorkeeper_slots == 0) {
    throw std::invalid_argument("AdmissionFilteredCache: need doorkeeper slots");
  }
}

bool AdmissionFilteredCache::seen_recently(ObjectId object) {
  // Fibonacci-hash the id into a slot; a match means a recent sighting.
  const std::size_t slot =
      (static_cast<std::uint64_t>(object) * 0x9e3779b97f4a7c15ULL >> 32) %
      slots_.size();
  if (slots_[slot] == object) return true;
  slots_[slot] = object;  // record this sighting (may overwrite a collision)
  return false;
}

bool AdmissionFilteredCache::insert(ObjectId object, std::uint64_t size,
                                    std::vector<ObjectId>& evicted) {
  if (inner_->contains(object)) {
    inner_->insert(object, size, evicted);  // refresh policy state
    return false;
  }
  // No pressure yet: admit freely while the cache has room.
  const bool under_pressure = inner_->used_units() + size > inner_->capacity_units();
  if (under_pressure && !seen_recently(object)) {
    ++rejections_;
    return false;
  }
  ++admissions_;
  return inner_->insert(object, size, evicted);
}

void AdmissionFilteredCache::copy_from(const Cache& source) {
  const auto& other = same_policy<AdmissionFilteredCache>(source);
  inner_->copy_from(*other.inner_);  // throws before any change on a mismatch
  slots_ = other.slots_;
  admissions_ = other.admissions_;
  rejections_ = other.rejections_;
}

}  // namespace idicn::cache
