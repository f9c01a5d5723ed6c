#include "cache/lru_cache.hpp"

#include <bit>

namespace idicn::cache {
namespace {

constexpr unsigned kInitialTableBits = 3;

}  // namespace

LruCache::LruCache(std::uint64_t capacity)
    : capacity_(capacity),
      table_(std::size_t{1} << kInitialTableBits, kNil),
      table_shift_(64 - kInitialTableBits) {}

void LruCache::unlink(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
  s.prev = s.next = kNil;
}

void LruCache::link_front(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = head_;
  if (head_ != kNil) slots_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

std::size_t LruCache::home_of(ObjectId object) const noexcept {
  // Fibonacci hashing: the top bits of the product spread dense ids.
  return static_cast<std::size_t>((object * 0x9e3779b97f4a7c15ULL) >> table_shift_);
}

std::size_t LruCache::find_bucket(ObjectId object) const noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t bucket = home_of(object);
  while (table_[bucket] != kNil && slots_[table_[bucket]].object != object) {
    bucket = (bucket + 1) & mask;
  }
  return bucket;
}

void LruCache::erase_bucket(std::size_t bucket) noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t j = (bucket + 1) & mask; table_[j] != kNil; j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home lies cyclically in
    // (hole, j]: then moving it would put it before its home.
    const std::size_t home = home_of(slots_[table_[j]].object);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = kNil;
}

void LruCache::resize_table(std::size_t buckets) {
  std::vector<std::uint32_t> old(buckets, kNil);
  old.swap(table_);  // table_ is now the empty resized table
  table_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  const std::size_t mask = table_.size() - 1;
  for (const std::uint32_t slot : old) {
    if (slot == kNil) continue;
    std::size_t bucket = home_of(slots_[slot].object);
    while (table_[bucket] != kNil) bucket = (bucket + 1) & mask;
    table_[bucket] = slot;
  }
}

bool LruCache::lookup(ObjectId object) {
  const std::uint32_t slot = table_[find_bucket(object)];
  if (slot == kNil) return false;
  if (head_ != slot) {
    unlink(slot);
    link_front(slot);
  }
  return true;
}

bool LruCache::contains(ObjectId object) const {
  return table_[find_bucket(object)] != kNil;
}

void LruCache::evict_lru(std::vector<ObjectId>& evicted) {
  const std::uint32_t victim = tail_;
  Slot& s = slots_[victim];
  used_ -= s.size;
  evicted.push_back(s.object);
  erase_bucket(find_bucket(s.object));
  unlink(victim);
  free_slots_.push_back(victim);
}

void LruCache::insert(ObjectId object, std::uint64_t size,
                      std::vector<ObjectId>& evicted) {
  if (lookup(object)) return;  // refresh; sizes are immutable per object
  if (size > capacity_) return;  // cannot ever fit

  while (used_ + size > capacity_) evict_lru(evicted);

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot] = Slot{object, size, kNil, kNil};
  link_front(slot);
  if (2 * object_count() > table_.size()) resize_table(table_.size() * 2);
  table_[find_bucket(object)] = slot;
  used_ += size;
}

void LruCache::erase(ObjectId object) {
  const std::size_t bucket = find_bucket(object);
  const std::uint32_t slot = table_[bucket];
  if (slot == kNil) return;
  used_ -= slots_[slot].size;
  erase_bucket(bucket);
  unlink(slot);
  free_slots_.push_back(slot);
}

void LruCache::presize(std::size_t objects) {
  slots_.reserve(objects);
  const std::size_t buckets = std::bit_ceil(2 * objects);
  if (buckets > table_.size()) resize_table(buckets);
}

void LruCache::copy_from(const Cache& source) {
  const LruCache& other = same_policy<LruCache>(source);
  capacity_ = other.capacity_;
  used_ = other.used_;
  slots_ = other.slots_;
  free_slots_ = other.free_slots_;
  head_ = other.head_;
  tail_ = other.tail_;
  table_ = other.table_;
  table_shift_ = other.table_shift_;
}

}  // namespace idicn::cache
