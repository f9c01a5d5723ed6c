#include "cache/lfu_cache.hpp"

namespace idicn::cache {

LfuCache::LfuCache(std::uint64_t capacity) : capacity_(capacity) {}

void LfuCache::touch(ObjectId object, Entry& entry) {
  order_.erase(OrderKey{entry.frequency, entry.age, object});
  entry.frequency += 1;
  entry.age = ++clock_;
  order_.insert(OrderKey{entry.frequency, entry.age, object});
}

bool LfuCache::lookup(ObjectId object) {
  const auto it = entries_.find(object);
  if (it == entries_.end()) return false;
  touch(object, it->second);
  return true;
}

bool LfuCache::contains(ObjectId object) const {
  return entries_.find(object) != entries_.end();
}

void LfuCache::evict_one(std::vector<ObjectId>& evicted) {
  const auto victim = order_.begin();
  const ObjectId object = std::get<2>(*victim);
  used_ -= entries_[object].size;
  evicted.push_back(object);
  entries_.erase(object);
  order_.erase(victim);
}

bool LfuCache::insert(ObjectId object, std::uint64_t size,
                      std::vector<ObjectId>& evicted) {
  const auto it = entries_.find(object);
  if (it != entries_.end()) {
    touch(object, it->second);
    return false;
  }
  if (size > capacity_) return false;
  while (used_ + size > capacity_) evict_one(evicted);
  Entry entry;
  entry.frequency = 1;
  entry.age = ++clock_;
  entry.size = size;
  order_.insert(OrderKey{entry.frequency, entry.age, object});
  entries_.emplace(object, entry);
  used_ += size;
  return true;
}

void LfuCache::erase(ObjectId object) {
  const auto it = entries_.find(object);
  if (it == entries_.end()) return;
  order_.erase(OrderKey{it->second.frequency, it->second.age, object});
  used_ -= it->second.size;
  entries_.erase(it);
}

void LfuCache::copy_from(const Cache& source) {
  const LfuCache& other = same_policy<LfuCache>(source);
  capacity_ = other.capacity_;
  used_ = other.used_;
  clock_ = other.clock_;
  entries_ = other.entries_;
  order_ = other.order_;
}

}  // namespace idicn::cache
