#include "cache/simple_caches.hpp"

#include <stdexcept>

#include "cache/lfu_cache.hpp"
#include "cache/lru_cache.hpp"

namespace idicn::cache {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Lru: return "LRU";
    case PolicyKind::Lfu: return "LFU";
    case PolicyKind::Fifo: return "FIFO";
    case PolicyKind::Random: return "RANDOM";
  }
  return "UNKNOWN";
}

PopularityImage::PopularityImage(std::vector<ObjectId> order,
                                 std::shared_ptr<const std::vector<std::uint64_t>> sizes)
    : order_(std::move(order)), sizes_(std::move(sizes)) {
  if (sizes_ == nullptr) throw std::invalid_argument("PopularityImage: null sizes");
  if (order_.size() >= kNoRank) throw std::invalid_argument("PopularityImage: order too long");
  rank_.assign(sizes_->size(), kNoRank);
  for (std::size_t rank = 0; rank < order_.size(); ++rank) {
    const ObjectId object = order_[rank];
    if (object >= rank_.size()) {
      throw std::invalid_argument("PopularityImage: an object without a size");
    }
    if (rank_[object] != kNoRank) {
      throw std::invalid_argument("PopularityImage: an object ranked twice");
    }
    rank_[object] = static_cast<std::uint32_t>(rank);
  }
}

std::size_t PopularityImage::fitting_prefix(std::uint64_t capacity) const noexcept {
  std::size_t prefix = 0;
  for (std::uint64_t used = 0;
       prefix < order_.size() && used + size_of(order_[prefix]) <= capacity; ++prefix) {
    used += size_of(order_[prefix]);
  }
  return prefix;
}

std::uint64_t Cache::warm_start_units(const PopularityImage* image, std::size_t prefix,
                                      std::uint64_t max_size) const {
  if (image == nullptr) throw std::invalid_argument("Cache::warm_start: null image");
  if (object_count() != 0) throw std::invalid_argument("Cache::warm_start: cache not empty");
  if (prefix > image->size()) {
    throw std::invalid_argument("Cache::warm_start: prefix longer than the image");
  }
  std::uint64_t units = 0;
  for (std::size_t rank = 0; rank < prefix; ++rank) {
    const std::uint64_t size = image->size_of(image->object_at(rank));
    if (size > max_size) throw std::invalid_argument("Cache::warm_start: object too large");
    if (size > capacity_units() - units) {
      throw std::invalid_argument("Cache::warm_start: prefix does not fit");
    }
    units += size;
  }
  return units;
}

void Cache::warm_start(std::shared_ptr<const PopularityImage> image, std::size_t prefix) {
  (void)warm_start_units(image.get(), prefix);
  presize(prefix);
  std::vector<ObjectId> evicted;  // stays empty: the prefix fits
  for (std::size_t rank = prefix; rank-- > 0;) {
    const ObjectId object = image->object_at(rank);
    insert(object, image->size_of(object), evicted);
  }
}

std::unique_ptr<Cache> make_cache(PolicyKind kind, std::uint64_t capacity,
                                  std::uint64_t seed, std::pmr::memory_resource* memory) {
  switch (kind) {
    case PolicyKind::Lru: return std::make_unique<LruCache>(capacity, memory);
    case PolicyKind::Lfu: return std::make_unique<LfuCache>(capacity);
    case PolicyKind::Fifo: return std::make_unique<FifoCache>(capacity);
    case PolicyKind::Random: return std::make_unique<RandomCache>(capacity, seed);
  }
  throw std::invalid_argument("make_cache: unknown policy");
}

// ---------------------------------------------------------------------------
// FifoCache
// ---------------------------------------------------------------------------

FifoCache::FifoCache(std::uint64_t capacity) : capacity_(capacity) {}

bool FifoCache::lookup(ObjectId object) { return contains(object); }

bool FifoCache::contains(ObjectId object) const {
  return entries_.find(object) != entries_.end();
}

bool FifoCache::insert(ObjectId object, std::uint64_t size,
                       std::vector<ObjectId>& evicted) {
  if (contains(object)) return false;
  if (size > capacity_) return false;
  while (used_ + size > capacity_) {
    // Pop, skipping entries invalidated by erase()/re-insert.
    while (queue_head_ < queue_.size()) {
      const auto& [candidate, seq] = queue_[queue_head_];
      const auto it = entries_.find(candidate);
      if (it != entries_.end() && it->second.seq == seq) break;
      ++queue_head_;
    }
    const ObjectId victim = queue_[queue_head_++].first;
    used_ -= entries_[victim].size;
    entries_.erase(victim);
    evicted.push_back(victim);
  }
  // Periodically compact the consumed prefix so memory stays bounded.
  if (queue_head_ > 4096 && queue_head_ * 2 > queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
  const std::uint64_t seq = next_seq_++;
  queue_.emplace_back(object, seq);
  entries_.emplace(object, Entry{size, seq});
  used_ += size;
  return true;
}

void FifoCache::erase(ObjectId object) {
  const auto it = entries_.find(object);
  if (it == entries_.end()) return;
  used_ -= it->second.size;
  entries_.erase(it);  // queue entry becomes stale; skipped on eviction
}

void FifoCache::copy_from(const Cache& source) {
  const FifoCache& other = same_policy<FifoCache>(source);
  capacity_ = other.capacity_;
  used_ = other.used_;
  next_seq_ = other.next_seq_;
  queue_ = other.queue_;
  queue_head_ = other.queue_head_;
  entries_ = other.entries_;
}

// ---------------------------------------------------------------------------
// RandomCache
// ---------------------------------------------------------------------------

RandomCache::RandomCache(std::uint64_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

bool RandomCache::lookup(ObjectId object) { return contains(object); }

bool RandomCache::contains(ObjectId object) const {
  return members_.find(object) != members_.end();
}

bool RandomCache::insert(ObjectId object, std::uint64_t size,
                         std::vector<ObjectId>& evicted) {
  if (contains(object)) return false;
  if (size > capacity_) return false;
  while (used_ + size > capacity_) {
    std::uniform_int_distribution<std::size_t> pick(0, objects_.size() - 1);
    const std::size_t position = pick(rng_);
    const ObjectId victim = objects_[position];
    used_ -= members_[victim].size;
    evicted.push_back(victim);
    // Swap-erase from the dense vector and fix the moved member's position.
    objects_[position] = objects_.back();
    members_[objects_[position]].position = position;
    objects_.pop_back();
    members_.erase(victim);
  }
  members_.emplace(object, Member{objects_.size(), size});
  objects_.push_back(object);
  used_ += size;
  return true;
}

void RandomCache::erase(ObjectId object) {
  const auto it = members_.find(object);
  if (it == members_.end()) return;
  const std::size_t position = it->second.position;
  used_ -= it->second.size;
  objects_[position] = objects_.back();
  members_[objects_[position]].position = position;
  objects_.pop_back();
  members_.erase(it);
}

void RandomCache::copy_from(const Cache& source) {
  const RandomCache& other = same_policy<RandomCache>(source);
  capacity_ = other.capacity_;
  used_ = other.used_;
  objects_ = other.objects_;
  members_ = other.members_;
}

}  // namespace idicn::cache
