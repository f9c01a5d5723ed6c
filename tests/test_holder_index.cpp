// HolderIndex tests: bookkeeping correctness and nearest-replica queries
// cross-checked against a brute-force oracle over random configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/holder_index.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn;
using core::HolderIndex;
using topology::GlobalNodeId;

topology::HierarchicalNetwork test_network() {
  return topology::HierarchicalNetwork(topology::make_abilene(),
                                       topology::AccessTreeShape(2, 3));
}

TEST(HolderIndex, AddRemoveHolds) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId n1 = net.leaf(0, 0);
  const GlobalNodeId n2 = net.leaf(5, 3);
  index.add(42, n1);
  index.add(42, n2);
  EXPECT_TRUE(index.holds(42, n1));
  EXPECT_TRUE(index.holds(42, n2));
  EXPECT_FALSE(index.holds(42, net.leaf(0, 1)));
  EXPECT_FALSE(index.holds(43, n1));
  EXPECT_EQ(index.size(), 2u);

  index.remove(42, n1);
  EXPECT_FALSE(index.holds(42, n1));
  EXPECT_TRUE(index.holds(42, n2));
  EXPECT_EQ(index.size(), 1u);
}

TEST(HolderIndex, RemoveUnknownThrows) {
  const auto net = test_network();
  HolderIndex index(net);
  EXPECT_THROW(index.remove(1, net.leaf(0, 0)), std::logic_error);
  index.add(1, net.leaf(0, 0));
  EXPECT_THROW(index.remove(1, net.leaf(0, 1)), std::logic_error);  // same PoP
  EXPECT_THROW(index.remove(1, net.leaf(4, 0)), std::logic_error);  // other PoP
}

// Every rejected add/add_group/remove must leave the index exactly as it
// was: the duplicate and absence checks run before any bucket is touched.
TEST(HolderIndex, RejectedCallsLeaveIndexUnchanged) {
  const auto net = test_network();
  HolderIndex index(net);
  EXPECT_FALSE(index.holds(0, net.leaf(0, 0)));  // empty index
  const GlobalNodeId held[] = {net.leaf(0, 0), net.global_node(0, 2),
                               net.pop_root(3), net.leaf(7, 5)};
  for (const GlobalNodeId node : held) index.add(11, node);
  index.add(12, net.leaf(3, 1));

  const GlobalNodeId leaves[] = {net.leaf(0, 1), net.leaf(3, 4), net.leaf(9, 0)};
  const auto snapshot = [&] {
    std::vector<std::pair<double, GlobalNodeId>> answers;
    for (const GlobalNodeId leaf : leaves) {
      for (const std::uint32_t object : {11u, 12u, 13u}) {
        const auto best = index.nearest(object, leaf);
        answers.emplace_back(best ? best->cost : -1.0, best ? best->node : 0);
        for (const auto& c : index.candidates_by_cost(object, leaf)) {
          answers.emplace_back(c.cost, c.node);
        }
      }
    }
    return answers;
  };
  const auto before = snapshot();

  for (const GlobalNodeId node : held) {
    EXPECT_THROW(index.add(11, node), std::logic_error);
  }
  EXPECT_THROW(index.add(12, net.leaf(3, 1)), std::logic_error);
  EXPECT_THROW(index.remove(13, net.leaf(0, 0)), std::logic_error);  // never added
  EXPECT_THROW(index.remove(11, net.leaf(5, 0)), std::logic_error);  // PoP holds none
  EXPECT_THROW(index.remove(11, net.leaf(0, 2)), std::logic_error);  // PoP holds others
  EXPECT_THROW(index.remove(12, net.leaf(0, 0)), std::logic_error);  // held, other object
  // Group calls: one node of the set already holds the object, a node is
  // listed twice (with and without an existing record), a node is not in
  // the tree, the PoP does not exist.
  const auto t = [&](GlobalNodeId node) { return net.tree_index_of(node); };
  const topology::TreeIndex overlaps[] = {t(net.leaf(0, 1)), t(net.leaf(0, 0))};
  EXPECT_THROW(index.add_group(11, 0, overlaps), std::logic_error);
  const topology::TreeIndex twice[] = {t(net.leaf(5, 2)), t(net.leaf(5, 2))};
  EXPECT_THROW(index.add_group(11, 5, twice), std::logic_error);
  EXPECT_THROW(index.add_group(13, 5, twice), std::logic_error);
  const topology::TreeIndex outside[] = {1, net.tree().node_count()};
  EXPECT_THROW(index.add_group(11, 5, outside), std::logic_error);
  const topology::TreeIndex root[] = {0};
  EXPECT_THROW(index.add_group(11, net.pop_count(), root), std::logic_error);

  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(snapshot(), before);
  for (const GlobalNodeId node : held) EXPECT_TRUE(index.holds(11, node));
  EXPECT_TRUE(index.holds(12, net.leaf(3, 1)));
  EXPECT_FALSE(index.holds(13, net.leaf(0, 0)));
  EXPECT_FALSE(index.holds(11, net.leaf(0, 2)));
  EXPECT_FALSE(index.holds(11, net.leaf(5, 0)));
  EXPECT_FALSE(index.holds(11, net.leaf(0, 1)));
  EXPECT_FALSE(index.holds(11, net.leaf(5, 2)));
  EXPECT_FALSE(index.holds(13, net.leaf(5, 2)));
  EXPECT_FALSE(index.holds(11, net.global_node(5, 1)));
  EXPECT_FALSE(index.holds(0xffffffffu, net.leaf(0, 0)));  // id never added
}

TEST(HolderIndex, NearestEmptyIsNullopt) {
  const auto net = test_network();
  HolderIndex index(net);
  EXPECT_FALSE(index.nearest(7, net.leaf(0, 0)).has_value());
}

TEST(HolderIndex, NearestPrefersOwnLeaf) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId leaf = net.leaf(3, 2);
  index.add(1, net.leaf(9, 0));
  index.add(1, leaf);
  const auto nearest = index.nearest(1, leaf);
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->node, leaf);
  EXPECT_DOUBLE_EQ(nearest->cost, 0.0);
}

TEST(HolderIndex, NearestCrossPopUsesCoreDistance) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId leaf = net.leaf(0, 0);  // Seattle
  // Holder at Sunnyvale's root (1 core hop) vs a deep node in NY (far).
  index.add(5, net.pop_root(1));
  index.add(5, net.leaf(10, 7));
  const auto nearest = index.nearest(5, leaf);
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->node, net.pop_root(1));
  EXPECT_DOUBLE_EQ(nearest->cost, 3.0 + 1.0);
}

TEST(HolderIndex, NearestMatchesBruteForceOnRandomConfigurations) {
  const auto net = test_network();
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    HolderIndex index(net);
    std::vector<GlobalNodeId> holders;
    const int holder_count = 1 + static_cast<int>(rng() % 30);
    for (int i = 0; i < holder_count; ++i) {
      const GlobalNodeId node = static_cast<GlobalNodeId>(rng() % net.node_count());
      if (index.holds(9, node)) continue;
      index.add(9, node);
      holders.push_back(node);
    }
    const GlobalNodeId leaf =
        net.leaf(static_cast<topology::PopId>(rng() % net.pop_count()),
                 static_cast<std::uint32_t>(rng() % net.tree().leaf_count()));

    // Brute force: min over all holders by (distance, node id).
    double best_cost = 1e18;
    GlobalNodeId best_node = 0;
    for (const GlobalNodeId h : holders) {
      const double cost = net.distance(leaf, h);
      if (cost < best_cost || (cost == best_cost && h < best_node)) {
        best_cost = cost;
        best_node = h;
      }
    }
    const auto nearest = index.nearest(9, leaf);
    ASSERT_TRUE(nearest.has_value());
    EXPECT_DOUBLE_EQ(nearest->cost, best_cost) << "trial " << trial;
    EXPECT_EQ(nearest->node, best_node) << "trial " << trial;
  }
}

TEST(HolderIndex, CandidatesSortedByCost) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId leaf = net.leaf(0, 0);
  index.add(3, net.leaf(10, 1));
  index.add(3, net.pop_root(0));
  index.add(3, net.leaf(0, 1));
  const auto candidates = index.candidates_by_cost(3, leaf);
  ASSERT_EQ(candidates.size(), 3u);
  for (std::size_t i = 0; i + 1 < candidates.size(); ++i) {
    EXPECT_LE(candidates[i].cost, candidates[i + 1].cost);
  }
  // Each candidate's cost must equal the true network distance.
  for (const auto& c : candidates) {
    EXPECT_DOUBLE_EQ(c.cost, net.distance(leaf, c.node));
  }
}

TEST(HolderIndex, RemoveLastHolderOfLastPopErasesObject) {
  const auto net = test_network();
  HolderIndex index(net);
  index.add(8, net.leaf(2, 2));
  index.remove(8, net.leaf(2, 2));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.nearest(8, net.leaf(2, 2)).has_value());
  // Re-adding works after full erasure.
  index.add(8, net.leaf(2, 3));
  EXPECT_TRUE(index.holds(8, net.leaf(2, 3)));
}

// --- add_group vs per-node add ---------------------------------------------
//
// One index takes random sets of a PoP's tree nodes through add_group, the
// other takes the same pairs one add() at a time; removals interleave. The
// two must answer holds, size, nearest and walk identically throughout.
// The Géant and Abilene cases have 127 and 255 tree nodes, so the sets span
// two and four mask words.

struct GroupCase {
  std::string name;
  unsigned arity;
  unsigned depth;
};

// Without this, gtest prints the case as raw bytes, which include the
// std::string's heap pointer, so the listed test names change per run.
void PrintTo(const GroupCase& gc, std::ostream* os) {
  *os << gc.name << " k=" << gc.arity << " d=" << gc.depth;
}

class HolderIndexGroup : public ::testing::TestWithParam<GroupCase> {};

TEST_P(HolderIndexGroup, MatchesPerNodeAdds) {
  const GroupCase& gc = GetParam();
  const topology::HierarchicalNetwork net(topology::make_topology(gc.name),
                                          topology::AccessTreeShape(gc.arity, gc.depth));
  const topology::TreeIndex tree_nodes = net.tree().node_count();
  std::mt19937_64 rng(0x9009 ^ (gc.arity * 31 + gc.depth));
  HolderIndex grouped(net);
  HolderIndex per_node(net);
  std::vector<std::pair<std::uint32_t, GlobalNodeId>> live;
  constexpr std::uint32_t kObjects = 24;

  const auto expect_same_answers = [&](int op) {
    ASSERT_EQ(grouped.size(), per_node.size()) << "op " << op;
    for (int q = 0; q < 4; ++q) {
      const auto object = static_cast<std::uint32_t>(rng() % kObjects);
      const GlobalNodeId leaf =
          net.leaf(static_cast<topology::PopId>(rng() % net.pop_count()),
                   static_cast<std::uint32_t>(rng() % net.tree().leaf_count()));
      const GlobalNodeId node = static_cast<GlobalNodeId>(rng() % net.node_count());
      ASSERT_EQ(grouped.holds(object, node), per_node.holds(object, node)) << "op " << op;
      const auto a = grouped.nearest(object, leaf);
      const auto b = per_node.nearest(object, leaf);
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      if (a) {
        ASSERT_EQ(a->node, b->node) << "op " << op;
        ASSERT_EQ(a->cost, b->cost) << "op " << op;
      }
      const auto all = per_node.candidates_by_cost(object, leaf);
      const double bound = all.empty() ? HolderIndex::kUnbounded
                                       : all[rng() % all.size()].cost;
      const auto walk_all = [&](const HolderIndex& index) {
        std::vector<std::pair<GlobalNodeId, double>> out;
        auto walk = index.walk(object, leaf, bound);
        while (const auto c = walk.next()) out.emplace_back(c->node, c->cost);
        return out;
      };
      ASSERT_EQ(walk_all(grouped), walk_all(per_node)) << "op " << op;
    }
  };

  std::vector<topology::TreeIndex> nodes;
  for (int op = 0; op < 600; ++op) {
    if (live.empty() || rng() % 4 != 0) {
      // A random set of the PoP's nodes that do not hold the object yet,
      // in random order, sometimes empty.
      const auto object = static_cast<std::uint32_t>(rng() % kObjects);
      const auto pop = static_cast<topology::PopId>(rng() % net.pop_count());
      const std::uint64_t percent = rng() % 100;
      nodes.clear();
      for (topology::TreeIndex t = 0; t < tree_nodes; ++t) {
        if (rng() % 100 < percent && !per_node.holds(object, net.global_node(pop, t))) {
          nodes.push_back(t);
        }
      }
      std::shuffle(nodes.begin(), nodes.end(), rng);
      grouped.add_group(object, pop, nodes);
      for (const topology::TreeIndex t : nodes) {
        per_node.add(object, net.global_node(pop, t));
        live.emplace_back(object, net.global_node(pop, t));
      }
    } else {
      for (int r = 0; r < 8 && !live.empty(); ++r) {
        const std::size_t pick = rng() % live.size();
        grouped.remove(live[pick].first, live[pick].second);
        per_node.remove(live[pick].first, live[pick].second);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    expect_same_answers(op);
  }
  for (std::uint32_t object = 0; object < kObjects; ++object) {
    for (GlobalNodeId n = 0; n < net.node_count(); ++n) {
      ASSERT_EQ(grouped.holds(object, n), per_node.holds(object, n))
          << "object " << object << " node " << n;
    }
  }
  // Removing every pair empties both: no stale record survives in either.
  for (const auto& [object, node] : live) {
    grouped.remove(object, node);
    per_node.remove(object, node);
  }
  EXPECT_EQ(grouped.size(), 0u);
  EXPECT_EQ(per_node.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Trees, HolderIndexGroup,
    ::testing::Values(GroupCase{"Abilene", 2, 3}, GroupCase{"Geant", 4, 1},
                      GroupCase{"Geant", 2, 6}, GroupCase{"Abilene", 2, 7}),
    [](const ::testing::TestParamInfo<GroupCase>& info) {
      return info.param.name + "_k" + std::to_string(info.param.arity) + "_d" +
             std::to_string(info.param.depth);
    });

}  // namespace
