// The composed simulation network: a PoP-level core graph where every PoP
// is the root of a complete k-ary access tree (§4.1 of the paper).
//
// Global node numbering: with T = tree node count, node (pop p, tree index
// t) has global id p·T + t. The PoP core router IS tree index 0 of its own
// tree — there is exactly one physical node per PoP root.
//
// Global link numbering: core links keep their core graph ids; the uplink
// of tree node t>0 in pop p gets id core_link_count + p·(T−1) + (t−1).
//
// Latency models (§5 "other parameters"): hop costs may vary by level
// (arithmetic progression toward the core) or core links may cost a
// multiple of tree links. All distance/path computations take the model
// into account; the baseline model is unit cost everywhere, in which case
// distances equal hop counts.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/access_tree.hpp"
#include "topology/graph.hpp"
#include "topology/shortest_path.hpp"

namespace idicn::topology {

using PopId = std::uint32_t;
using GlobalNodeId = std::uint32_t;
using GlobalLinkId = std::uint32_t;

/// Per-hop cost model over the composed network.
struct LatencyModel {
  /// tree_edge_cost[l] = cost of the edge between tree level l and level
  /// l−1, for l in [1, depth]. Must have exactly `depth` entries.
  std::vector<double> tree_edge_cost;
  /// Cost of one core (PoP-to-PoP) hop.
  double core_hop_cost = 1.0;

  /// Unit cost everywhere: distances equal hop counts (the baseline).
  [[nodiscard]] static LatencyModel uniform(unsigned depth);

  /// Arithmetic progression toward the core: the leaf uplink costs 1, the
  /// next level 2, …; a core hop costs depth+1. (§5 latency variation 1.)
  [[nodiscard]] static LatencyModel arithmetic(unsigned depth);

  /// Unit tree hops, core hops cost `factor`. (§5 latency variation 2.)
  [[nodiscard]] static LatencyModel core_weighted(unsigned depth, double factor);
};

/// The composed core + access-tree network.
class HierarchicalNetwork {
public:
  HierarchicalNetwork(Graph core, AccessTreeShape tree,
                      LatencyModel latency = {});

  [[nodiscard]] const Graph& core() const noexcept { return core_; }
  [[nodiscard]] const AccessTreeShape& tree() const noexcept { return tree_; }
  [[nodiscard]] const LatencyModel& latency() const noexcept { return latency_; }
  [[nodiscard]] const AllPairsShortestPaths& core_paths() const noexcept {
    return core_paths_;
  }

  [[nodiscard]] PopId pop_count() const noexcept {
    return static_cast<PopId>(core_.node_count());
  }
  [[nodiscard]] GlobalNodeId node_count() const noexcept {
    return pop_count() * tree_.node_count();
  }
  [[nodiscard]] GlobalLinkId link_count() const noexcept {
    return static_cast<GlobalLinkId>(core_.link_count()) +
           pop_count() * (tree_.node_count() - 1);
  }

  // --- id mapping -----------------------------------------------------
  [[nodiscard]] GlobalNodeId global_node(PopId pop, TreeIndex t) const noexcept {
    return pop * tree_.node_count() + t;
  }
  [[nodiscard]] PopId pop_of(GlobalNodeId n) const noexcept {
    return n / tree_.node_count();
  }
  [[nodiscard]] TreeIndex tree_index_of(GlobalNodeId n) const noexcept {
    return n % tree_.node_count();
  }
  /// The PoP root router of pop p (tree index 0).
  [[nodiscard]] GlobalNodeId pop_root(PopId pop) const noexcept {
    return global_node(pop, 0);
  }
  /// The j-th leaf of pop p's access tree.
  [[nodiscard]] GlobalNodeId leaf(PopId pop, TreeIndex j) const {
    return global_node(pop, tree_.leaf(j));
  }
  [[nodiscard]] unsigned level_of(GlobalNodeId n) const {
    return tree_.level_of(tree_index_of(n));
  }

  // --- distances ------------------------------------------------------
  /// Latency-model distance between any two nodes.
  [[nodiscard]] double distance(GlobalNodeId from, GlobalNodeId to) const;

  /// Plain hop count between any two nodes (latency model ignored).
  [[nodiscard]] unsigned hop_count(GlobalNodeId from, GlobalNodeId to) const;

  /// Cost of descending from a pop root to a node at `level` (== cost of
  /// ascending from that node to its root).
  [[nodiscard]] double root_to_level_cost(unsigned level) const {
    return up_cost_[level];
  }
  /// Latency-model cost between two pop roots across the core. Answered
  /// from a flat matrix precomputed at construction — this sits on the
  /// nearest-replica hot path (one lookup per candidate PoP per request).
  [[nodiscard]] double core_cost(PopId a, PopId b) const {
    return core_cost_[static_cast<std::size_t>(a) * pop_count() + b];
  }

  // --- paths ----------------------------------------------------------
  /// Replace `out` with the full node sequence from → … → to through the
  /// hierarchy: up the source tree to its root, across the core (through
  /// intermediate pop roots), and down the destination tree. Same-pop pairs
  /// route through their LCA only. Reusing `out` keeps the simulator's
  /// per-request response walk allocation-free.
  void path(GlobalNodeId from, GlobalNodeId to, std::vector<GlobalNodeId>& out) const;

  /// The global link joining two adjacent nodes. Throws
  /// std::invalid_argument if the nodes are not adjacent.
  [[nodiscard]] GlobalLinkId link_between(GlobalNodeId a, GlobalNodeId b) const;

private:
  Graph core_;
  AccessTreeShape tree_;
  LatencyModel latency_;
  AllPairsShortestPaths core_paths_;
  std::vector<double> up_cost_;  // up_cost_[l] = cost from level l up to root
  std::vector<double> core_cost_;  // pop_count × pop_count core-cost matrix
};

}  // namespace idicn::topology
