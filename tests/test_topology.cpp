// Topology substrate tests: graph container, shortest paths, embedded and
// generated PoP maps.
#include <gtest/gtest.h>

#include <random>

#include "topology/graph.hpp"
#include "topology/pop_topology.hpp"
#include "topology/rocketfuel_gen.hpp"
#include "topology/shortest_path.hpp"

namespace {

using namespace idicn::topology;

// --- Graph ------------------------------------------------------------

TEST(Graph, AddNodesAndLinks) {
  Graph g;
  const NodeId a = g.add_node("a", 1.0);
  const NodeId b = g.add_node("b", 2.0);
  const LinkId link = g.add_link(a, b, 1.5);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.link_count(), 1u);
  EXPECT_EQ(g.link(link).weight, 1.5);
  EXPECT_EQ(g.link_between(a, b), link);
  EXPECT_EQ(g.link_between(b, a), link);
  EXPECT_EQ(g.neighbors(a).size(), 1u);
  EXPECT_EQ(g.neighbors(a)[0].neighbor, b);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g;
  const NodeId a = g.add_node("a");
  EXPECT_THROW(g.add_link(a, a), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateLink) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_link(a, b);
  EXPECT_THROW(g.add_link(a, b), std::invalid_argument);
  EXPECT_THROW(g.add_link(b, a), std::invalid_argument);
}

TEST(Graph, RejectsBadNodeAndWeight) {
  Graph g;
  const NodeId a = g.add_node("a");
  EXPECT_THROW(g.add_link(a, 99), std::out_of_range);
  EXPECT_THROW(g.add_node("bad", 0.0), std::invalid_argument);
  const NodeId b = g.add_node("b");
  EXPECT_THROW(g.add_link(a, b, -1.0), std::invalid_argument);
}

TEST(Graph, Connectivity) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_node("c");  // isolated
  g.add_link(a, b);
  EXPECT_FALSE(g.connected());
}

TEST(Graph, TotalPopulation) {
  Graph g;
  g.add_node("a", 1.5);
  g.add_node("b", 2.5);
  EXPECT_DOUBLE_EQ(g.total_population(), 4.0);
}

// --- Dijkstra / all-pairs ------------------------------------------------

Graph diamond() {
  // a-b-d and a-c-d, plus a longer a-d edge.
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  g.add_link(a, b, 1.0);
  g.add_link(b, d, 1.0);
  g.add_link(a, c, 1.0);
  g.add_link(c, d, 1.0);
  g.add_link(a, d, 3.0);
  return g;
}

TEST(Dijkstra, ShortestDistances) {
  const Graph g = diamond();
  const ShortestPathTree tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.distance[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.distance[2], 1.0);
  EXPECT_DOUBLE_EQ(tree.distance[3], 2.0);  // via b or c, not the weight-3 edge
}

TEST(AllPairs, SymmetricAndConsistent) {
  const Graph g = diamond();
  const AllPairsShortestPaths apsp(g);
  std::vector<NodeId> path;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_DOUBLE_EQ(apsp.distance(u, v), apsp.distance(v, u));
      apsp.path(u, v, path);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      EXPECT_EQ(path.size() - 1, apsp.hop_count(u, v));
      // Consecutive path nodes must be adjacent.
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_NE(g.link_between(path[i], path[i + 1]), kInvalidLink);
      }
    }
  }
}

TEST(AllPairs, DeterministicTieBreak) {
  // Two equal-cost paths: result must be identical across constructions.
  const Graph g = diamond();
  const AllPairsShortestPaths a(g);
  const AllPairsShortestPaths b(g);
  std::vector<NodeId> path_a, path_b;
  a.path(0, 3, path_a);
  b.path(0, 3, path_b);
  EXPECT_EQ(path_a, path_b);
}

TEST(AllPairs, TriangleInequalityOnRandomGraphs) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g;
    const unsigned n = 20;
    for (unsigned i = 0; i < n; ++i) g.add_node("n" + std::to_string(i));
    for (unsigned i = 1; i < n; ++i) {
      g.add_link(i, static_cast<NodeId>(rng() % i));  // random tree: connected
    }
    for (int extra = 0; extra < 10; ++extra) {
      const NodeId u = static_cast<NodeId>(rng() % n);
      const NodeId v = static_cast<NodeId>(rng() % n);
      if (u != v && g.link_between(u, v) == kInvalidLink) g.add_link(u, v);
    }
    const AllPairsShortestPaths apsp(g);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        for (NodeId k = 0; k < n; ++k) {
          EXPECT_LE(apsp.distance(i, j),
                    apsp.distance(i, k) + apsp.distance(k, j) + 1e-9);
        }
      }
    }
  }
}

// --- evaluation topologies ------------------------------------------------

class EvaluationTopologies : public ::testing::TestWithParam<std::string> {};

TEST_P(EvaluationTopologies, ConnectedWithPositivePopulations) {
  const Graph g = make_topology(GetParam());
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.node_count(), 10u);
  EXPECT_GE(g.link_count(), g.node_count() - 1);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    EXPECT_GT(g.node(n).population, 0.0);
    EXPECT_FALSE(g.node(n).name.empty());
  }
}

TEST_P(EvaluationTopologies, DeterministicAcrossCalls) {
  const Graph a = make_topology(GetParam());
  const Graph b = make_topology(GetParam());
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (LinkId l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.link(l).a, b.link(l).a);
    EXPECT_EQ(a.link(l).b, b.link(l).b);
  }
  for (NodeId n = 0; n < a.node_count(); ++n) {
    EXPECT_DOUBLE_EQ(a.node(n).population, b.node(n).population);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEight, EvaluationTopologies,
                         ::testing::ValuesIn(evaluation_topology_names()));

TEST(Topologies, AbileneShape) {
  const Graph g = make_abilene();
  EXPECT_EQ(g.node_count(), 11u);
  EXPECT_EQ(g.link_count(), 14u);
}

TEST(Topologies, AttIsLargest) {
  // §5 of the paper calls AT&T the largest topology.
  std::size_t att_size = make_topology("ATT").node_count();
  for (const std::string& name : evaluation_topology_names()) {
    EXPECT_LE(make_topology(name).node_count(), att_size) << name;
  }
}

TEST(Topologies, UnknownNameThrows) {
  EXPECT_THROW(make_topology("NotAnIsp"), std::invalid_argument);
}

TEST(RocketfuelGen, RespectssPopCount) {
  const Graph g = RocketfuelLikeGenerator{40, 123}.generate("Test");
  EXPECT_EQ(g.node_count(), 40u);
  EXPECT_TRUE(g.connected());
  // Mean degree in the realistic 2–4 band.
  const double mean_degree = 2.0 * static_cast<double>(g.link_count()) / 40.0;
  EXPECT_GE(mean_degree, 2.0);
  EXPECT_LE(mean_degree, 5.0);
}

TEST(RocketfuelGen, PopulationsAreHeavyTailed) {
  const Graph g = RocketfuelLikeGenerator{50, 7}.generate("Test");
  double max_pop = 0.0, min_pop = 1e18;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    max_pop = std::max(max_pop, g.node(n).population);
    min_pop = std::min(min_pop, g.node(n).population);
  }
  EXPECT_GT(max_pop / min_pop, 10.0);
}

TEST(RocketfuelGen, TooFewPopsThrows) {
  EXPECT_THROW(RocketfuelLikeGenerator(3, 1).generate("x"), std::invalid_argument);
}

}  // namespace
