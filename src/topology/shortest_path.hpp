// Shortest-path computations over core topologies.
//
// The simulator needs (a) hop distances between every pair of PoPs (for
// request/response path lengths and nearest-replica search) and (b) actual
// next-hop paths (for per-link congestion accounting). Core graphs are
// small (tens to ~150 PoPs), so we precompute all-pairs tables once with
// repeated Dijkstra runs.
#pragma once

#include <limits>
#include <vector>

#include "topology/graph.hpp"

namespace idicn::topology {

constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Single-source shortest-path result.
struct ShortestPathTree {
  std::vector<double> distance;   ///< distance[v] from the source
  std::vector<NodeId> predecessor;///< predecessor[v] on a shortest path (kInvalidNode at source)
};

/// Dijkstra from `source`. Ties are broken toward the lower node id so the
/// produced paths (and hence congestion counts) are deterministic.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& graph, NodeId source);

/// All-pairs shortest paths with next-hop extraction.
class AllPairsShortestPaths {
public:
  explicit AllPairsShortestPaths(const Graph& graph);

  [[nodiscard]] double distance(NodeId from, NodeId to) const {
    return distance_[from][to];
  }

  /// Unweighted hop count along the (weighted-)shortest path.
  [[nodiscard]] unsigned hop_count(NodeId from, NodeId to) const {
    return hops_[from][to];
  }

  /// The node before `to` on the path from `from` (kInvalidNode when
  /// to == from or `to` is unreachable).
  [[nodiscard]] NodeId predecessor(NodeId from, NodeId to) const {
    return predecessor_[from][to];
  }

  /// Replace `out` with the node sequence from → … → to (inclusive); empty
  /// when unreachable. Reusing `out` keeps per-request walks allocation-free.
  void path(NodeId from, NodeId to, std::vector<NodeId>& out) const;

  [[nodiscard]] std::size_t node_count() const noexcept { return distance_.size(); }

private:
  std::vector<std::vector<double>> distance_;
  std::vector<std::vector<unsigned>> hops_;
  std::vector<std::vector<NodeId>> predecessor_;  // predecessor_[src][v]
};

}  // namespace idicn::topology
