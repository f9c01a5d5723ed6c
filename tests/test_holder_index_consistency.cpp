// Holder-index consistency suite for the optimized (level-ordered,
// hash-membership, lazy-walk) HolderIndex:
//
//   1. Under full simulations with heavy eviction churn, the index must
//      exactly mirror a brute-force scan of every cache's contents after
//      EVERY simulated request (via the simulator's request observer).
//   2. nearest() / candidates_by_cost() / walk() must agree byte-for-byte
//      with the pre-overhaul exhaustive-sort implementation
//      (ReferenceHolderIndex) on randomized topologies and churn.
#include <gtest/gtest.h>

#include <random>

#include "core/experiment.hpp"
#include "core/holder_index_reference.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn;
using core::HolderIndex;
using core::ReferenceHolderIndex;
using topology::GlobalNodeId;

// Every (node, object) pair: the index must say exactly what the caches say.
void expect_index_matches_caches(const core::Simulator& sim,
                                 const topology::HierarchicalNetwork& net,
                                 std::uint32_t object_count,
                                 std::size_t request_index) {
  const HolderIndex* index = sim.holder_index();
  ASSERT_NE(index, nullptr);
  std::size_t cached_pairs = 0;
  for (GlobalNodeId n = 0; n < net.node_count(); ++n) {
    const cache::Cache* cache = sim.cache_at(n);
    for (std::uint32_t o = 0; o < object_count; ++o) {
      const bool in_cache = cache != nullptr && cache->contains(o);
      cached_pairs += in_cache;
      ASSERT_EQ(index->holds(o, n), in_cache)
          << "request " << request_index << " node " << n << " object " << o;
    }
  }
  ASSERT_EQ(index->size(), cached_pairs) << "request " << request_index;
}

struct ChurnFixture {
  topology::HierarchicalNetwork network;
  core::BoundWorkload workload;
  core::OriginMap origins;

  ChurnFixture()
      : network(topology::make_abilene(), topology::AccessTreeShape(2, 2)),
        workload(make_workload(network)),
        origins(network, kObjects, core::OriginAssignment::PopulationProportional,
                77) {}

  static constexpr std::uint32_t kObjects = 200;

  static core::BoundWorkload make_workload(const topology::HierarchicalNetwork& net) {
    core::SyntheticWorkloadSpec spec;
    spec.request_count = 1'500;
    spec.object_count = kObjects;
    spec.alpha = 0.9;
    spec.seed = 11;
    return core::bind_synthetic(net, spec);
  }

  // Tiny caches (~4 objects per node) force constant eviction churn.
  core::SimulationConfig churn_config() const {
    core::SimulationConfig config;
    config.budget_fraction = 0.02;
    return config;
  }

  void run_checked(const core::DesignSpec& design,
                   const core::SimulationConfig& config) {
    core::Simulator sim(network, origins, design, config);
    sim.set_request_observer([&](std::size_t request_index) {
      expect_index_matches_caches(sim, network, kObjects, request_index);
    });
    const core::SimulationMetrics m = sim.run(workload);
    EXPECT_EQ(m.cache_hits + m.total_origin_served, m.request_count);
  }
};

TEST(HolderIndexConsistency, MirrorsCachesAfterEveryRequestNearestReplica) {
  ChurnFixture f;
  f.run_checked(core::icn_nr(), f.churn_config());
}

TEST(HolderIndexConsistency, MirrorsCachesUnderServingCapacityWalks) {
  ChurnFixture f;
  core::SimulationConfig config = f.churn_config();
  config.serving_capacity = 2;
  config.capacity_window = 50;
  f.run_checked(core::icn_nr(), config);
}

TEST(HolderIndexConsistency, MirrorsCachesUnderScopedNearestReplica) {
  ChurnFixture f;
  f.run_checked(core::icn_scoped_nr(3.0), f.churn_config());
}

// --- regression vs the pre-overhaul exhaustive-sort implementation ---------

struct RandomTopologyCase {
  std::string name;
  unsigned arity;
  unsigned depth;
};

class HolderIndexRegression
    : public ::testing::TestWithParam<RandomTopologyCase> {};

TEST_P(HolderIndexRegression, AgreesWithExhaustiveSortImplementation) {
  const RandomTopologyCase& tc = GetParam();
  const topology::HierarchicalNetwork net(
      topology::make_topology(tc.name),
      topology::AccessTreeShape(tc.arity, tc.depth));

  std::mt19937_64 rng(0xc0de ^ (tc.arity * 31 + tc.depth));
  HolderIndex index(net);
  ReferenceHolderIndex reference(net);
  std::vector<std::pair<std::uint32_t, GlobalNodeId>> live;

  constexpr std::uint32_t kObjects = 40;
  const auto random_leaf = [&]() {
    return net.leaf(static_cast<topology::PopId>(rng() % net.pop_count()),
                    static_cast<std::uint32_t>(rng() % net.tree().leaf_count()));
  };

  for (int op = 0; op < 4'000; ++op) {
    // Churn: 60% adds / 40% removes keeps the population growing slowly
    // while exercising every erase path.
    if (live.empty() || rng() % 10 < 6) {
      const std::uint32_t object = static_cast<std::uint32_t>(rng() % kObjects);
      const GlobalNodeId node = static_cast<GlobalNodeId>(rng() % net.node_count());
      if (index.holds(object, node)) continue;
      index.add(object, node);
      reference.add(object, node);
      live.emplace_back(object, node);
    } else {
      const std::size_t pick = rng() % live.size();
      const auto [object, node] = live[pick];
      index.remove(object, node);
      reference.remove(object, node);
      live[pick] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(index.size(), reference.size());

    if (op % 7 != 0) continue;
    const std::uint32_t object = static_cast<std::uint32_t>(rng() % kObjects);
    const GlobalNodeId leaf = random_leaf();

    // nearest: byte-identical node and cost.
    const auto fast = index.nearest(object, leaf);
    const auto slow = reference.nearest(object, leaf);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "op " << op;
    if (fast) {
      ASSERT_EQ(fast->node, slow->node) << "op " << op;
      ASSERT_EQ(fast->cost, slow->cost) << "op " << op;  // bitwise, not approx
    }

    // Full candidate ordering: identical sequence of (node, cost).
    const auto fast_candidates = index.candidates_by_cost(object, leaf);
    const auto slow_candidates = reference.candidates_by_cost(object, leaf);
    ASSERT_EQ(fast_candidates.size(), slow_candidates.size()) << "op " << op;
    for (std::size_t i = 0; i < fast_candidates.size(); ++i) {
      ASSERT_EQ(fast_candidates[i].node, slow_candidates[i].node)
          << "op " << op << " rank " << i;
      ASSERT_EQ(fast_candidates[i].cost, slow_candidates[i].cost)
          << "op " << op << " rank " << i;
    }

    // Bounded walk: exactly the <= max_cost prefix of the full ordering.
    if (!slow_candidates.empty()) {
      const double bound =
          slow_candidates[rng() % slow_candidates.size()].cost;
      auto walk = index.walk(object, leaf, bound);
      std::size_t rank = 0;
      while (const auto c = walk.next()) {
        ASSERT_LT(rank, slow_candidates.size());
        ASSERT_EQ(c->node, slow_candidates[rank].node) << "op " << op;
        ASSERT_EQ(c->cost, slow_candidates[rank].cost) << "op " << op;
        ++rank;
      }
      while (rank < slow_candidates.size() &&
             slow_candidates[rank].cost <= bound) {
        ADD_FAILURE() << "walk stopped early at rank " << rank << " op " << op;
        ++rank;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedTopologies, HolderIndexRegression,
    ::testing::Values(RandomTopologyCase{"Abilene", 2, 3},
                      RandomTopologyCase{"Abilene", 3, 2},
                      RandomTopologyCase{"Geant", 2, 2},
                      RandomTopologyCase{"Geant", 4, 1},
                      RandomTopologyCase{"Telstra", 2, 3},
                      // 65, 127 and 255 tree nodes: holder records whose
                      // masks span two and four 64-bit words.
                      RandomTopologyCase{"Abilene", 64, 1},
                      RandomTopologyCase{"Geant", 2, 6},
                      RandomTopologyCase{"Abilene", 2, 7}),
    [](const ::testing::TestParamInfo<RandomTopologyCase>& info) {
      return info.param.name + "_k" + std::to_string(info.param.arity) + "_d" +
             std::to_string(info.param.depth);
    });

TEST(PerfCounters, SurfacedThroughSimulationMetrics) {
  ChurnFixture f;
  core::SimulationConfig config = f.churn_config();
  config.serving_capacity = 2;
  config.capacity_window = 50;
  core::Simulator sim(f.network, f.origins, core::icn_nr(), config);
  const core::SimulationMetrics m = sim.run(f.workload);
  if (core::kPerfCountersEnabled) {
    EXPECT_GT(m.perf.origin_cost_memo_hits, 0u);
    EXPECT_GT(m.perf.candidate_walks, 0u);
    EXPECT_GT(m.perf.candidates_visited, 0u);
    EXPECT_GT(m.perf.sorts_avoided, 0u);
  } else {
    // Compiled out: the layer must read all-zero.
    EXPECT_EQ(m.perf.origin_cost_memo_hits, 0u);
    EXPECT_EQ(m.perf.candidate_walks, 0u);
  }
}

// The nearest-replica pruning bound must never change the serve decision:
// a bounded query either returns the true nearest replica (when it is
// within the bound) or something the caller rejects anyway.
TEST(HolderIndexConsistency, BoundedNearestNeverChangesDecisions) {
  const topology::HierarchicalNetwork net(topology::make_abilene(),
                                          topology::AccessTreeShape(2, 3));
  std::mt19937_64 rng(99);
  HolderIndex index(net);
  for (int i = 0; i < 60; ++i) {
    const GlobalNodeId node = static_cast<GlobalNodeId>(rng() % net.node_count());
    if (!index.holds(7, node)) index.add(7, node);
  }
  for (int trial = 0; trial < 200; ++trial) {
    const GlobalNodeId leaf =
        net.leaf(static_cast<topology::PopId>(rng() % net.pop_count()),
                 static_cast<std::uint32_t>(rng() % net.tree().leaf_count()));
    const auto unbounded = index.nearest(7, leaf);
    ASSERT_TRUE(unbounded.has_value());
    const double bound = static_cast<double>(rng() % 12);
    const auto bounded = index.nearest(7, leaf, bound);
    if (unbounded->cost <= bound) {
      ASSERT_TRUE(bounded.has_value());
      EXPECT_EQ(bounded->node, unbounded->node);
      EXPECT_EQ(bounded->cost, unbounded->cost);
    } else if (bounded) {
      // Anything returned above the bound is rejected by the caller; it
      // must still never beat the true nearest.
      EXPECT_GE(bounded->cost, unbounded->cost);
    }
  }
}

}  // namespace
