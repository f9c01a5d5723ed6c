#include "topology/shortest_path.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

namespace idicn::topology {

ShortestPathTree dijkstra(const Graph& graph, NodeId source) {
  const std::size_t n = graph.node_count();
  ShortestPathTree tree;
  tree.distance.assign(n, kUnreachable);
  tree.predecessor.assign(n, kInvalidNode);

  // (distance, node); lower node id wins ties for determinism.
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  tree.distance[source] = 0.0;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > tree.distance[u]) continue;  // stale entry
    for (const Adjacency& adj : graph.neighbors(u)) {
      const double candidate = dist + adj.weight;
      // Strictly-better, or equal-cost with a lower-id predecessor: the
      // second clause pins a unique deterministic shortest-path tree.
      if (candidate < tree.distance[adj.neighbor] ||
          (candidate == tree.distance[adj.neighbor] &&
           tree.predecessor[adj.neighbor] != kInvalidNode &&
           u < tree.predecessor[adj.neighbor])) {
        tree.distance[adj.neighbor] = candidate;
        tree.predecessor[adj.neighbor] = u;
        heap.emplace(candidate, adj.neighbor);
      }
    }
  }
  return tree;
}

AllPairsShortestPaths::AllPairsShortestPaths(const Graph& graph) {
  const std::size_t n = graph.node_count();
  distance_.resize(n);
  hops_.resize(n);
  predecessor_.resize(n);
  for (NodeId src = 0; src < n; ++src) {
    ShortestPathTree tree = dijkstra(graph, src);
    distance_[src] = std::move(tree.distance);
    predecessor_[src] = std::move(tree.predecessor);
    hops_[src].assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (distance_[src][v] == kUnreachable) continue;
      unsigned hops = 0;
      NodeId cursor = v;
      while (cursor != src) {
        cursor = predecessor_[src][cursor];
        ++hops;
      }
      hops_[src][v] = hops;
    }
  }
}

void AllPairsShortestPaths::path(NodeId from, NodeId to,
                                 std::vector<NodeId>& out) const {
  out.clear();
  if (distance_[from][to] == kUnreachable) return;
  for (NodeId cursor = to; cursor != from; cursor = predecessor_[from][cursor]) {
    out.push_back(cursor);
  }
  out.push_back(from);
  std::reverse(out.begin(), out.end());
}

}  // namespace idicn::topology
