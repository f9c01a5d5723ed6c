// Composed hierarchical network tests: id mapping, distances under latency
// models, path construction, and link identification.
#include <gtest/gtest.h>

#include "topology/network.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn::topology;

HierarchicalNetwork small_network(LatencyModel latency = {}) {
  return HierarchicalNetwork(make_abilene(), AccessTreeShape(2, 3), std::move(latency));
}

TEST(Network, Counts) {
  const HierarchicalNetwork net = small_network();
  EXPECT_EQ(net.pop_count(), 11u);
  EXPECT_EQ(net.node_count(), 11u * 15u);
  EXPECT_EQ(net.link_count(), 14u + 11u * 14u);
}

TEST(Network, IdMappingRoundtrip) {
  const HierarchicalNetwork net = small_network();
  for (PopId pop = 0; pop < net.pop_count(); ++pop) {
    for (TreeIndex t = 0; t < net.tree().node_count(); ++t) {
      const GlobalNodeId g = net.global_node(pop, t);
      EXPECT_EQ(net.pop_of(g), pop);
      EXPECT_EQ(net.tree_index_of(g), t);
    }
  }
  EXPECT_EQ(net.pop_root(3), net.global_node(3, 0));
}

TEST(Network, SamePopDistanceIsTreeDistance) {
  const HierarchicalNetwork net = small_network();
  const GlobalNodeId a = net.leaf(2, 0);
  const GlobalNodeId b = net.leaf(2, 1);  // sibling leaves
  EXPECT_DOUBLE_EQ(net.distance(a, b), 2.0);
  EXPECT_EQ(net.hop_count(a, b), 2u);
  EXPECT_DOUBLE_EQ(net.distance(a, net.pop_root(2)), 3.0);
}

TEST(Network, CrossPopDistance) {
  const HierarchicalNetwork net = small_network();
  const GlobalNodeId a = net.leaf(0, 0);         // Seattle leaf
  const GlobalNodeId b = net.pop_root(1);        // Sunnyvale root (adjacent pop)
  EXPECT_DOUBLE_EQ(net.distance(a, b), 3.0 + 1.0);
  const GlobalNodeId c = net.leaf(1, 3);
  EXPECT_DOUBLE_EQ(net.distance(a, c), 3.0 + 1.0 + 3.0);
  EXPECT_EQ(net.hop_count(a, c), 7u);
}

TEST(Network, DistanceMatchesPathLength) {
  const HierarchicalNetwork net = small_network();
  const GlobalNodeId pairs[][2] = {
      {net.leaf(0, 0), net.leaf(0, 7)},  {net.leaf(0, 0), net.leaf(5, 3)},
      {net.pop_root(2), net.leaf(9, 1)}, {net.leaf(4, 2), net.pop_root(4)},
      {net.global_node(3, 1), net.global_node(7, 4)},
  };
  std::vector<GlobalNodeId> path;
  for (const auto& [from, to] : pairs) {
    net.path(from, to, path);
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path.front(), from);
    EXPECT_EQ(path.back(), to);
    EXPECT_EQ(path.size() - 1, net.hop_count(from, to));
    // Every consecutive pair must map to a valid link.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_NO_THROW((void)net.link_between(path[i], path[i + 1]));
    }
  }
}

// The exact node order matters: congestion counts and on-path caching follow
// it. It must equal the LCA tree path within a pop, and otherwise the source
// tree's climb, the core's tie-broken shortest path and the destination
// tree's descent.
TEST(Network, PathComposesTreeAndCorePaths) {
  const HierarchicalNetwork net(make_geant(), AccessTreeShape(3, 3));
  const AccessTreeShape& tree = net.tree();
  std::vector<GlobalNodeId> path;
  std::vector<NodeId> core;
  for (GlobalNodeId from = 0; from < net.node_count(); from += 7) {
    for (GlobalNodeId to = 0; to < net.node_count(); to += 11) {
      const PopId pa = net.pop_of(from);
      const PopId pb = net.pop_of(to);
      std::vector<GlobalNodeId> expected;
      if (pa == pb) {
        for (const TreeIndex t : tree.path(net.tree_index_of(from), net.tree_index_of(to))) {
          expected.push_back(net.global_node(pa, t));
        }
      } else {
        for (const TreeIndex t : tree.path_to_root(net.tree_index_of(from))) {
          expected.push_back(net.global_node(pa, t));
        }
        net.core_paths().path(pa, pb, core);
        for (std::size_t i = 1; i < core.size(); ++i) {
          expected.push_back(net.pop_root(core[i]));
        }
        const std::vector<TreeIndex> up = tree.path_to_root(net.tree_index_of(to));
        for (std::size_t i = up.size() - 1; i-- > 0;) {
          expected.push_back(net.global_node(pb, up[i]));
        }
      }
      net.path(from, to, path);
      ASSERT_EQ(path, expected) << from << " -> " << to;
    }
  }
}

TEST(Network, PathToSelfIsSingleton) {
  const HierarchicalNetwork net = small_network();
  const GlobalNodeId a = net.leaf(3, 3);
  std::vector<GlobalNodeId> path{7, 8, 9};  // stale contents are replaced
  net.path(a, a, path);
  EXPECT_EQ(path, std::vector<GlobalNodeId>{a});
  EXPECT_DOUBLE_EQ(net.distance(a, a), 0.0);
}

TEST(Network, LinkIdsAreUniqueAndInRange) {
  const HierarchicalNetwork net = small_network();
  std::vector<bool> seen(net.link_count(), false);
  // Tree uplinks.
  for (PopId pop = 0; pop < net.pop_count(); ++pop) {
    for (TreeIndex t = 1; t < net.tree().node_count(); ++t) {
      const GlobalLinkId link = net.link_between(
          net.global_node(pop, t), net.global_node(pop, net.tree().parent(t)));
      ASSERT_LT(link, net.link_count());
      EXPECT_FALSE(seen[link]);
      seen[link] = true;
    }
  }
  // Core links.
  for (LinkId l = 0; l < net.core().link_count(); ++l) {
    const Link& link = net.core().link(l);
    const GlobalLinkId g = net.link_between(net.pop_root(link.a), net.pop_root(link.b));
    ASSERT_LT(g, net.link_count());
    EXPECT_FALSE(seen[g]);
    seen[g] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Network, LinkBetweenRejectsNonAdjacent) {
  const HierarchicalNetwork net = small_network();
  EXPECT_THROW((void)net.link_between(net.leaf(0, 0), net.leaf(0, 3)),
               std::invalid_argument);
  EXPECT_THROW((void)net.link_between(net.leaf(0, 0), net.pop_root(1)),
               std::invalid_argument);
}

TEST(Network, ArithmeticLatencyModel) {
  // Depth 3: leaf uplink costs 1, then 2, then 3; core hop costs 4.
  const HierarchicalNetwork net = small_network(LatencyModel::arithmetic(3));
  const GlobalNodeId leaf = net.leaf(0, 0);
  EXPECT_DOUBLE_EQ(net.distance(leaf, net.pop_root(0)), 1.0 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(net.distance(leaf, net.pop_root(1)), 6.0 + 4.0);
  // Hop counts ignore the model.
  EXPECT_EQ(net.hop_count(leaf, net.pop_root(1)), 4u);
}

TEST(Network, CoreWeightedLatencyModel) {
  const HierarchicalNetwork net = small_network(LatencyModel::core_weighted(3, 5.0));
  const GlobalNodeId leaf = net.leaf(0, 0);
  EXPECT_DOUBLE_EQ(net.distance(leaf, net.pop_root(0)), 3.0);
  EXPECT_DOUBLE_EQ(net.distance(leaf, net.pop_root(1)), 3.0 + 5.0);
}

TEST(Network, MismatchedLatencyModelThrows) {
  LatencyModel model = LatencyModel::uniform(4);  // tree depth is 3
  EXPECT_THROW(HierarchicalNetwork(make_abilene(), AccessTreeShape(2, 3), model),
               std::invalid_argument);
}

TEST(Network, DisconnectedCoreThrows) {
  Graph g;
  g.add_node("a");
  g.add_node("b");  // no links
  EXPECT_THROW(HierarchicalNetwork(std::move(g), AccessTreeShape(2, 2)),
               std::invalid_argument);
}

}  // namespace
