// Replica location index backing nearest-replica routing (ICN-NR).
//
// The paper conservatively assumes nearest-replica lookup is free (§3); the
// simulator therefore maintains an oracle of which caches currently hold
// each object. Each object maps to one flat vector of per-PoP records,
// sorted by PoP id. A record is 1 + W words: the PoP id, then a bitmask of
// W = ceil(T / 64) words for a tree of T nodes, whose bit t is set when
// tree node t of that PoP holds the object. A record exists only while its
// mask has a bit set, and an object's entry only while it has a record.
// The records are the only record of membership: add/remove/holds
// binary-search the PoP, then touch one bit (and reject a duplicate or an
// absent holder there). add_group ORs a whole set of one PoP's nodes into
// the record at once; the bitmask format stays private to this class.
//
// Complete k-ary trees number nodes in level order, so tree-index order IS
// level order, and within a remote PoP the cost of reaching a holder
// (root-descent cost) is monotone in its level: the *lowest set bit* of a
// remote PoP's mask is always that PoP's best candidate (strictly cheaper
// than any other holder there, or equal-cost with a lower node id), and
// cost-ordered walks stream a PoP's holders by stepping to the next set
// bit instead of materializing and sorting them all.
//
// Complexities (P = PoPs holding the object, L = holders in the query's
// own PoP, W = mask words per record):
//   add/remove           O(1) object lookup + O(log P) record search
//                        + O(1) bit update; O(P·W) word moves when a
//                        record is created or dropped
//   add_group of n nodes as add, plus O(n + W) to build and merge the mask
//   holds                O(1) object lookup + O(log P)
//   nearest              O(L + P·W)
//   cost-ordered walk    O(L·log L + P·W + k·(log P + W)) for k consumed
//                        candidates, bounded PoPs pruned up front, with no
//                        allocation once the scratch buffers have grown.
//
// Queries reuse index-owned scratch buffers, so a single HolderIndex must
// not be queried from multiple threads concurrently (each Simulator owns
// its index; cross-design parallelism is across simulators).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/perf_counters.hpp"
#include "topology/network.hpp"

namespace idicn::core {

class HolderIndex {
public:
  explicit HolderIndex(const topology::HierarchicalNetwork& network);

  /// Record that `node` now holds `object`. Throws std::logic_error on a
  /// duplicate insert (the caller — a cache — already deduplicates) and
  /// then leaves the index unchanged.
  void add(std::uint32_t object, topology::GlobalNodeId node);

  /// Record every node of `tree_nodes`, tree indices of PoP `pop`, as a
  /// holder of `object` with one record update (the simulator's warm start
  /// records each group of identical caches this way). The index ends
  /// exactly as one add() per node would leave it: the same records and
  /// the same size(). Throws std::logic_error, and then leaves the index
  /// unchanged, when a node already holds the object, is listed twice, or
  /// is not a node of the tree, or when `pop` is not a PoP. An empty set
  /// changes nothing.
  void add_group(std::uint32_t object, topology::PopId pop,
                 std::span<const topology::TreeIndex> tree_nodes);

  /// Record that `node` no longer holds `object` (eviction). Throws
  /// std::logic_error when (object, node) is not tracked, and then leaves
  /// the index unchanged.
  void remove(std::uint32_t object, topology::GlobalNodeId node);

  /// True when `node` is recorded as a holder.
  [[nodiscard]] bool holds(std::uint32_t object, topology::GlobalNodeId node) const;

  struct Candidate {
    topology::GlobalNodeId node = 0;
    double cost = 0.0;
  };

  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  /// Nearest replica of `object` to a request arriving at `leaf` under the
  /// network's latency model. Ties break toward the lower global node id.
  /// Returns std::nullopt when no cache holds the object (the caller falls
  /// back to the origin).
  ///
  /// `max_cost` is a pruning hint (e.g. the origin cost): PoP buckets whose
  /// cheapest possible candidate already exceeds it are skipped. The result
  /// is identical to the unbounded query whenever the true nearest replica
  /// costs <= max_cost; candidates costing more may still be returned (the
  /// caller re-checks the bound before serving).
  [[nodiscard]] std::optional<Candidate> nearest(std::uint32_t object,
                                                 topology::GlobalNodeId leaf,
                                                 double max_cost = kUnbounded) const;

  /// Lazy cost-ordered walk over the replicas of one object: next() yields
  /// candidates in ascending (cost, node) order — the exact order
  /// candidates_by_cost() would produce — stopping at the first candidate
  /// whose cost exceeds the walk's bound. State lives in index-owned
  /// scratch, so at most one walk may be live per index at a time.
  class Walk {
  public:
    /// Next candidate with cost <= max_cost, or std::nullopt when done.
    [[nodiscard]] std::optional<Candidate> next();

  private:
    friend class HolderIndex;
    explicit Walk(const HolderIndex* index) : index_(index) {}
    const HolderIndex* index_;
  };

  /// Begin a cost-ordered walk bounded by `max_cost` (inclusive), used by
  /// the serving-capacity variation, which skips overloaded caches.
  [[nodiscard]] Walk walk(std::uint32_t object, topology::GlobalNodeId leaf,
                          double max_cost = kUnbounded) const;

  /// All replicas, sorted by ascending (cost, node) from `leaf`. Kept for
  /// tests and tools; the hot path streams candidates via walk() instead.
  [[nodiscard]] std::vector<Candidate> candidates_by_cost(
      std::uint32_t object, topology::GlobalNodeId leaf) const;

  /// Total (object, node) pairs tracked.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Hot-path counters (zero-valued when the perf layer is compiled out).
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }
  void reset_perf() noexcept { perf_.reset(); }

private:
  using Word = std::uint64_t;
  static constexpr unsigned kWordBits = 64;

  /// Word offset of `pop`'s record in `records`, or of the record that
  /// would follow it (records.size() when there is none).
  [[nodiscard]] std::size_t find_record(const std::vector<Word>& records,
                                        topology::PopId pop) const noexcept;
  /// Lowest set bit at or after `from` in the W-word `mask`: the PoP's
  /// next holder in level order, or a value >= T when there is none.
  [[nodiscard]] topology::TreeIndex next_holder(const Word* mask,
                                                topology::TreeIndex from) const noexcept;

  struct HeapEntry {
    double cost = 0.0;
    topology::GlobalNodeId node = 0;
    std::uint32_t lane = 0;
  };
  static bool heap_after(const HeapEntry& a, const HeapEntry& b) noexcept;

  [[nodiscard]] std::optional<Candidate> walk_next() const;
  void heap_push(double cost, topology::GlobalNodeId node, std::uint32_t lane) const;

  const topology::HierarchicalNetwork* network_;
  std::size_t words_;   ///< W: mask words per record
  std::size_t stride_;  ///< 1 + W: words per record
  std::unordered_map<std::uint32_t, std::vector<Word>> holders_;  ///< records
  std::size_t size_ = 0;  ///< (object, node) pairs across all records
  std::vector<Word> group_mask_;  ///< add_group's set, built before any change

  // --- walk scratch (reused across queries; see class comment) ----------
  static constexpr std::uint32_t kOwnLane = 0xffffffffu;
  struct Lane {
    const Word* mask = nullptr;       ///< the remote PoP's record mask
    double base = 0.0;                ///< leaf-up + core cost to this PoP
    topology::TreeIndex holder = 0;   ///< cursor: this lane's current holder
    topology::GlobalNodeId node_base = 0;  ///< pop * tree node count
  };
  mutable std::vector<Lane> lanes_;
  mutable std::vector<HeapEntry> heap_;      ///< min-heap by (cost, node)
  mutable std::vector<Candidate> own_sorted_;///< own-PoP candidates, sorted
  mutable std::size_t own_next_ = 0;
  mutable double walk_max_cost_ = kUnbounded;
  mutable bool walk_cut_ = false;  ///< some lane was truncated by the bound
  mutable PerfCounters perf_;
};

}  // namespace idicn::core
