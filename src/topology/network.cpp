#include "topology/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace idicn::topology {

LatencyModel LatencyModel::uniform(unsigned depth) {
  LatencyModel m;
  m.tree_edge_cost.assign(depth, 1.0);
  m.core_hop_cost = 1.0;
  return m;
}

LatencyModel LatencyModel::arithmetic(unsigned depth) {
  LatencyModel m;
  m.tree_edge_cost.resize(depth);
  // Leaf uplink (level depth → depth−1) costs 1; costs grow by 1 per level
  // toward the core.
  for (unsigned l = 1; l <= depth; ++l) {
    m.tree_edge_cost[l - 1] = static_cast<double>(depth - l + 1);
  }
  m.core_hop_cost = static_cast<double>(depth + 1);
  return m;
}

LatencyModel LatencyModel::core_weighted(unsigned depth, double factor) {
  LatencyModel m;
  m.tree_edge_cost.assign(depth, 1.0);
  m.core_hop_cost = factor;
  return m;
}

HierarchicalNetwork::HierarchicalNetwork(Graph core, AccessTreeShape tree,
                                         LatencyModel latency)
    : core_(std::move(core)),
      tree_(tree),
      latency_(std::move(latency)),
      core_paths_(core_) {
  if (latency_.tree_edge_cost.empty()) {
    latency_ = LatencyModel::uniform(tree_.depth());
  }
  if (latency_.tree_edge_cost.size() != tree_.depth()) {
    throw std::invalid_argument(
        "HierarchicalNetwork: latency model does not match tree depth");
  }
  if (!core_.connected()) {
    throw std::invalid_argument("HierarchicalNetwork: core graph must be connected");
  }
  up_cost_.assign(tree_.depth() + 1, 0.0);
  for (unsigned l = 1; l <= tree_.depth(); ++l) {
    up_cost_[l] = up_cost_[l - 1] + latency_.tree_edge_cost[l - 1];
  }
  const PopId pops = pop_count();
  core_cost_.resize(static_cast<std::size_t>(pops) * pops);
  for (PopId a = 0; a < pops; ++a) {
    for (PopId b = 0; b < pops; ++b) {
      core_cost_[static_cast<std::size_t>(a) * pops + b] =
          static_cast<double>(core_paths_.hop_count(a, b)) * latency_.core_hop_cost;
    }
  }
}

double HierarchicalNetwork::distance(GlobalNodeId from, GlobalNodeId to) const {
  const PopId pa = pop_of(from);
  const PopId pb = pop_of(to);
  const TreeIndex ta = tree_index_of(from);
  const TreeIndex tb = tree_index_of(to);
  if (pa == pb) {
    const TreeIndex lca = tree_.lowest_common_ancestor(ta, tb);
    return up_cost_[tree_.level_of(ta)] + up_cost_[tree_.level_of(tb)] -
           2.0 * up_cost_[tree_.level_of(lca)];
  }
  return up_cost_[tree_.level_of(ta)] + core_cost(pa, pb) + up_cost_[tree_.level_of(tb)];
}

unsigned HierarchicalNetwork::hop_count(GlobalNodeId from, GlobalNodeId to) const {
  const PopId pa = pop_of(from);
  const PopId pb = pop_of(to);
  const TreeIndex ta = tree_index_of(from);
  const TreeIndex tb = tree_index_of(to);
  if (pa == pb) return tree_.hop_distance(ta, tb);
  return tree_.level_of(ta) + core_paths_.hop_count(pa, pb) + tree_.level_of(tb);
}

void HierarchicalNetwork::path(GlobalNodeId from, GlobalNodeId to,
                               std::vector<GlobalNodeId>& out) const {
  const PopId pa = pop_of(from);
  const PopId pb = pop_of(to);
  TreeIndex ta = tree_index_of(from);
  TreeIndex tb = tree_index_of(to);
  // The path turns at the LCA within one pop, else at the pop roots.
  const TreeIndex turn = pa == pb ? tree_.lowest_common_ancestor(ta, tb) : 0;

  out.clear();
  // Up the source tree to the turn (inclusive)…
  for (; ta != turn; ta = tree_.parent(ta)) out.push_back(global_node(pa, ta));
  out.push_back(global_node(pa, turn));
  // …then the rest, walked backward from `to` and reversed in place: up the
  // destination tree to the turn (exclusive), then the core predecessors
  // back to the source pop (exclusive).
  const std::size_t back = out.size();
  for (; tb != turn; tb = tree_.parent(tb)) out.push_back(global_node(pb, tb));
  for (PopId p = pb; p != pa; p = core_paths_.predecessor(pa, p)) {
    out.push_back(pop_root(p));
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(back), out.end());
}

GlobalLinkId HierarchicalNetwork::link_between(GlobalNodeId a, GlobalNodeId b) const {
  const PopId pa = pop_of(a);
  const PopId pb = pop_of(b);
  const TreeIndex ta = tree_index_of(a);
  const TreeIndex tb = tree_index_of(b);

  if (pa == pb) {
    // Must be a parent-child pair within the tree.
    TreeIndex child;
    if (ta != 0 && tree_.parent(ta) == tb) {
      child = ta;
    } else if (tb != 0 && tree_.parent(tb) == ta) {
      child = tb;
    } else {
      throw std::invalid_argument("link_between: nodes not adjacent (same pop)");
    }
    return static_cast<GlobalLinkId>(core_.link_count()) +
           pa * (tree_.node_count() - 1) + (child - 1);
  }

  if (ta != 0 || tb != 0) {
    throw std::invalid_argument("link_between: cross-pop link must join pop roots");
  }
  const LinkId core_link = core_.link_between(pa, pb);
  if (core_link == kInvalidLink) {
    throw std::invalid_argument("link_between: pops not adjacent in core");
  }
  return core_link;
}

}  // namespace idicn::topology
