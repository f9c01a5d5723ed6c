// LRU cache — the paper's baseline replacement policy.
//
// A cache is an image plus an overlay. The image is a warm start by
// reference (warm_start): a PopularityImage shared by every cache that
// warms from the same order, the length of this cache's prefix, a cursor
// and a bitset. Ranks in [0, cursor) have not been evicted; a set bit
// marks a rank that left the image, because its object moved into the
// overlay or was erased. The overlay holds every object touched since the
// warm start, in recency order.
//
// Exact LRU: the warm start stands for inserting the prefix least popular
// first, so untouched image objects are in rank order, most popular most
// recent. Every touch (a lookup hit or an insert) makes its object the
// most recent, above every untouched image object. So the least recent
// object is the highest-rank image object still held: eviction walks the
// cursor down past ranks that left the image, and only when the image
// holds nothing does the victim come from the overlay's tail. contains
// probes the image (rank below the cursor, bit clear) and the overlay; a
// lookup hit on an image object moves it into the overlay, and sets its
// bit once the overlay holds it. copy_from shares the image and copies the
// bitset and the overlay. most_recent walks the same order from the most
// recent end: the overlay from its head, then the untouched image ranks
// from 0.
//
// The overlay's entries live in its index: one flat open-addressing table
// of 16-byte entries {object, size, prev, next}, whose prev/next fields
// thread the recency list (head = most recent) through bucket indices.
// Lookups probe linearly from a multiplicative hash that a multiply-shift
// maps onto the table, so the table may have any size; doubling keeps the
// load at or below 3/4. Deletion shifts later entries of the probe run
// back (no tombstones build up under eviction churn) and re-points the
// list neighbours of every entry it moves. Growth rebuilds the table by
// walking the list oldest-first, so recency order carries over.
// presize(n) allocates, in one step, the fewest buckets that hold n
// objects within that load. All operations are O(1) expected (amortized
// for the cursor's walk); the hot path allocates nothing once the table
// has grown. The table and the bitset come from the memory resource given
// at construction.
//
// The entry layout sets insert's preconditions (cache.hpp): kEmpty marks
// an empty bucket, so it is no object's id, and a size must fit 32 bits.
// warm_start refuses a prefix holding a size that does not.
#pragma once

#include <limits>
#include <vector>

#include "cache/cache.hpp"

namespace idicn::cache {

class LruCache final : public Cache {
public:
  explicit LruCache(std::uint64_t capacity,
                    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  [[nodiscard]] bool lookup(ObjectId object) override;
  [[nodiscard]] bool contains(ObjectId object) const override;
  bool insert(ObjectId object, std::uint64_t size,
              std::vector<ObjectId>& evicted) override;
  void erase(ObjectId object) override;
  void presize(std::size_t objects) override;
  void warm_start(std::shared_ptr<const PopularityImage> image, std::size_t prefix) override;
  void copy_from(const Cache& source) override;

  /// Append to `out` the `limit` most recently used objects this cache
  /// holds (all of them when it holds fewer), most recent first.
  void most_recent(std::size_t limit, std::vector<ObjectId>& out) const;

  [[nodiscard]] std::size_t object_count() const noexcept override {
    return count_ + image_held_;
  }
  [[nodiscard]] std::uint64_t used_units() const noexcept override { return used_; }
  [[nodiscard]] std::uint64_t capacity_units() const noexcept override {
    return capacity_;
  }

  /// The largest size an entry holds; insert refuses larger ones.
  static constexpr std::uint64_t kMaxSize = std::numeric_limits<std::uint32_t>::max();

private:
  /// The id that marks an empty bucket; insert refuses it.
  static constexpr ObjectId kEmpty = std::numeric_limits<ObjectId>::max();
  /// No bucket: the end of the recency list.
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kNoRank = PopularityImage::kNoRank;

  struct Entry {
    ObjectId object = kEmpty;
    std::uint32_t size = 0;
    std::uint32_t prev = kNil;  // more recent neighbour's bucket
    std::uint32_t next = kNil;  // less recent neighbour's bucket
  };
  static_assert(sizeof(Entry) == 16);

  void unlink(std::uint32_t bucket) noexcept;
  void link_front(std::uint32_t bucket) noexcept;
  /// Enter `object` into the overlay as its most recent entry (it must be
  /// absent); grows the table as needed. Leaves used_ to the caller.
  void add_front(ObjectId object, std::uint32_t size);
  void evict_lru(std::vector<ObjectId>& evicted);

  /// The rank of `object` when it is an untouched image object this cache
  /// holds, otherwise kNoRank.
  [[nodiscard]] std::uint32_t held_rank(ObjectId object) const noexcept;
  [[nodiscard]] bool left_image(std::uint32_t rank) const noexcept {
    return (moved_[rank >> 6] >> (rank & 63)) & 1;
  }
  /// Mark the held image rank `rank` as gone from the image.
  void leave_image(std::uint32_t rank) noexcept;

  [[nodiscard]] std::size_t home_of(ObjectId object) const noexcept;
  /// The bucket holding `object`, or the empty bucket ending its probe run.
  [[nodiscard]] std::size_t find_bucket(ObjectId object) const noexcept;
  /// Unlink and empty `bucket`, shifting later entries of its probe run back.
  void remove_bucket(std::uint32_t bucket) noexcept;
  /// Re-enter every entry into a fresh table of `buckets`, oldest first.
  void rebuild(std::size_t buckets);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;  ///< image and overlay
  std::size_t count_ = 0;   ///< overlay entries
  std::pmr::vector<Entry> table_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used

  std::shared_ptr<const PopularityImage> image_;  ///< null before a warm start
  std::pmr::vector<std::uint64_t> moved_;  ///< a bit per prefix rank: left the image
  std::uint32_t cursor_ = 0;               ///< ranks [0, cursor_) not evicted
  std::size_t image_held_ = 0;             ///< ranks below cursor_ with a clear bit
};

}  // namespace idicn::cache
