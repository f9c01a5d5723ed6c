#include "cache/lru_cache.hpp"

#include <stdexcept>

namespace idicn::cache {
namespace {

constexpr std::size_t kInitialBuckets = 8;

// The load bound, 3/4: the table keeps at least 4 buckets per 3 entries.
constexpr std::size_t kLoadNumerator = 3;
constexpr std::size_t kLoadDenominator = 4;

/// The fewest buckets that hold `objects` entries within the load bound.
constexpr std::size_t buckets_for(std::size_t objects) {
  return (objects * kLoadDenominator + kLoadNumerator - 1) / kLoadNumerator;
}

/// The bucket after `bucket`, wrapping around a table of `buckets`.
constexpr std::size_t next_bucket(std::size_t bucket, std::size_t buckets) {
  return bucket + 1 == buckets ? 0 : bucket + 1;
}

}  // namespace

LruCache::LruCache(std::uint64_t capacity, std::pmr::memory_resource* memory)
    : capacity_(capacity), table_(kInitialBuckets, memory), moved_(memory) {}

void LruCache::unlink(std::uint32_t bucket) noexcept {
  Entry& e = table_[bucket];
  if (e.prev != kNil) {
    table_[e.prev].next = e.next;
  } else {
    head_ = e.next;
  }
  if (e.next != kNil) {
    table_[e.next].prev = e.prev;
  } else {
    tail_ = e.prev;
  }
  e.prev = e.next = kNil;
}

void LruCache::link_front(std::uint32_t bucket) noexcept {
  Entry& e = table_[bucket];
  e.prev = kNil;
  e.next = head_;
  if (head_ != kNil) table_[head_].prev = bucket;
  head_ = bucket;
  if (tail_ == kNil) tail_ = bucket;
}

std::size_t LruCache::home_of(ObjectId object) const noexcept {
  // Fibonacci hashing spreads dense ids over the top bits of the product;
  // a multiply-shift maps its top 32 bits onto [0, table size).
  const std::uint64_t hash = (object * 0x9e3779b97f4a7c15ULL) >> 32;
  return static_cast<std::size_t>((hash * table_.size()) >> 32);
}

std::size_t LruCache::find_bucket(ObjectId object) const noexcept {
  const std::size_t buckets = table_.size();
  std::size_t bucket = home_of(object);
  while (table_[bucket].object != kEmpty && table_[bucket].object != object) {
    bucket = next_bucket(bucket, buckets);
  }
  return bucket;
}

void LruCache::remove_bucket(std::uint32_t bucket) noexcept {
  unlink(bucket);
  --count_;
  const std::size_t buckets = table_.size();
  const auto distance = [buckets](std::size_t from, std::size_t to) {
    return to >= from ? to - from : to + buckets - from;
  };
  std::size_t hole = bucket;
  for (std::size_t j = next_bucket(hole, buckets); table_[j].object != kEmpty;
       j = next_bucket(j, buckets)) {
    // The entry at j may fill the hole unless its home lies cyclically in
    // (hole, j]: then moving it would put it before its home.
    if (distance(home_of(table_[j].object), j) < distance(hole, j)) continue;
    const Entry& moved = table_[hole] = table_[j];
    const auto to = static_cast<std::uint32_t>(hole);
    (moved.prev != kNil ? table_[moved.prev].next : head_) = to;
    (moved.next != kNil ? table_[moved.next].prev : tail_) = to;
    hole = j;
  }
  table_[hole] = Entry{};
}

void LruCache::rebuild(std::size_t buckets) {
  if (buckets > kNil) throw std::length_error("LruCache: index table too large");
  std::pmr::vector<Entry> old(buckets, table_.get_allocator());
  old.swap(table_);  // table_ is now the empty rebuilt table
  std::uint32_t from = tail_;
  head_ = tail_ = kNil;
  while (from != kNil) {
    const Entry& entry = old[from];
    const auto bucket = static_cast<std::uint32_t>(find_bucket(entry.object));
    table_[bucket].object = entry.object;
    table_[bucket].size = entry.size;
    link_front(bucket);
    from = entry.prev;
  }
}

std::uint32_t LruCache::held_rank(ObjectId object) const noexcept {
  if (image_held_ == 0) return kNoRank;
  const std::uint32_t rank = image_->rank_of(object);
  return rank < cursor_ && !left_image(rank) ? rank : kNoRank;
}

void LruCache::leave_image(std::uint32_t rank) noexcept {
  moved_[rank >> 6] |= std::uint64_t{1} << (rank & 63);
  --image_held_;
}

void LruCache::add_front(ObjectId object, std::uint32_t size) {
  if (buckets_for(count_ + 1) > table_.size()) rebuild(2 * table_.size());
  const auto bucket = static_cast<std::uint32_t>(find_bucket(object));
  table_[bucket].object = object;
  table_[bucket].size = size;
  link_front(bucket);
  ++count_;
}

bool LruCache::lookup(ObjectId object) {
  const auto bucket = static_cast<std::uint32_t>(find_bucket(object));
  if (table_[bucket].object != kEmpty) {
    if (head_ != bucket) {
      unlink(bucket);
      link_front(bucket);
    }
    return true;
  }
  const std::uint32_t rank = held_rank(object);
  if (rank == kNoRank) return false;
  // A touched image object joins the overlay as its most recent entry; its
  // bit is set only once the overlay holds it (add_front may throw).
  add_front(object, static_cast<std::uint32_t>(image_->size_of(object)));
  leave_image(rank);
  return true;
}

bool LruCache::contains(ObjectId object) const {
  return held_rank(object) != kNoRank || table_[find_bucket(object)].object != kEmpty;
}

void LruCache::evict_lru(std::vector<ObjectId>& evicted) {
  if (image_held_ != 0) {
    // Every overlay entry is more recent than every untouched image
    // object, and those rank by popularity: the victim is the highest
    // rank the image still holds.
    while (left_image(cursor_ - 1)) --cursor_;
    const ObjectId victim = image_->object_at(--cursor_);
    --image_held_;
    used_ -= image_->size_of(victim);
    evicted.push_back(victim);
    return;
  }
  const std::uint32_t victim = tail_;
  used_ -= table_[victim].size;
  evicted.push_back(table_[victim].object);
  remove_bucket(victim);
}

bool LruCache::insert(ObjectId object, std::uint64_t size,
                      std::vector<ObjectId>& evicted) {
  if (object == kEmpty) throw std::invalid_argument("LruCache::insert: reserved object id");
  if (size > kMaxSize) throw std::invalid_argument("LruCache::insert: size over 32 bits");
  if (lookup(object)) return false;  // refresh; sizes are immutable per object
  if (size > capacity_) return false;  // cannot ever fit

  while (used_ + size > capacity_) evict_lru(evicted);
  add_front(object, static_cast<std::uint32_t>(size));
  used_ += size;
  return true;
}

void LruCache::erase(ObjectId object) {
  const auto bucket = static_cast<std::uint32_t>(find_bucket(object));
  if (table_[bucket].object != kEmpty) {
    used_ -= table_[bucket].size;
    remove_bucket(bucket);
  } else if (const std::uint32_t rank = held_rank(object); rank != kNoRank) {
    used_ -= image_->size_of(object);
    leave_image(rank);
  }
}

void LruCache::most_recent(std::size_t limit, std::vector<ObjectId>& out) const {
  for (std::uint32_t bucket = head_; bucket != kNil && limit != 0; --limit) {
    out.push_back(table_[bucket].object);
    bucket = table_[bucket].next;
  }
  for (std::uint32_t rank = 0; rank < cursor_ && limit != 0; ++rank) {
    if (left_image(rank)) continue;
    out.push_back(image_->object_at(rank));
    --limit;
  }
}

void LruCache::presize(std::size_t objects) {
  const std::size_t buckets = buckets_for(objects);
  if (buckets > table_.size()) rebuild(buckets);
}

void LruCache::warm_start(std::shared_ptr<const PopularityImage> image,
                          std::size_t prefix) {
  const std::uint64_t units = warm_start_units(image.get(), prefix, kMaxSize);
  moved_.assign((prefix + 63) / 64, 0);
  image_ = std::move(image);
  cursor_ = static_cast<std::uint32_t>(prefix);
  image_held_ = prefix;
  used_ = units;
}

void LruCache::copy_from(const Cache& source) {
  const LruCache& other = same_policy<LruCache>(source);
  table_ = other.table_;
  moved_ = other.moved_;
  image_ = other.image_;
  capacity_ = other.capacity_;
  used_ = other.used_;
  count_ = other.count_;
  head_ = other.head_;
  tail_ = other.tail_;
  cursor_ = other.cursor_;
  image_held_ = other.image_held_;
}

}  // namespace idicn::cache
