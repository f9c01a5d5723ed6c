// Request-level simulator tests: conservation invariants, design semantics
// (placement, routing, cooperation, budget scaling), steady-state
// methodology, latency models, and serving-capacity limits.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn;
using namespace idicn::core;

struct Fixture {
  topology::HierarchicalNetwork network;
  BoundWorkload workload;
  OriginMap origins;
  SimulationConfig config;

  explicit Fixture(std::uint64_t requests = 30'000, std::uint32_t objects = 3'000,
                   double alpha = 1.0, double skew = 0.0)
      : network(topology::make_abilene(), topology::AccessTreeShape(2, 3)),
        workload(make_workload(network, requests, objects, alpha, skew)),
        origins(network, objects, OriginAssignment::PopulationProportional, 77) {}

  static BoundWorkload make_workload(const topology::HierarchicalNetwork& net,
                                     std::uint64_t requests, std::uint32_t objects,
                                     double alpha, double skew) {
    SyntheticWorkloadSpec spec;
    spec.request_count = requests;
    spec.object_count = objects;
    spec.alpha = alpha;
    spec.spatial_skew = skew;
    spec.seed = 5;
    return bind_synthetic(net, spec);
  }
};

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t total = 0;
  for (const std::uint64_t x : v) total += x;
  return total;
}

TEST(Simulator, ConservationInvariants) {
  Fixture f;
  for (const DesignSpec& design :
       {icn_sp(), icn_nr(), edge(), edge_coop(), edge_norm(), two_levels()}) {
    const SimulationMetrics m =
        run_design(f.network, f.origins, design, f.config, f.workload);
    // Every measured request is served exactly once: by a cache or an origin.
    EXPECT_EQ(m.cache_hits + m.total_origin_served, m.request_count) << design.name;
    EXPECT_EQ(sum(m.served_per_level), m.cache_hits) << design.name;
    EXPECT_EQ(sum(m.origin_served), m.total_origin_served) << design.name;
    // The measured window is the non-warmup tail.
    EXPECT_EQ(m.request_count,
              f.workload.requests.size() -
                  static_cast<std::size_t>(f.config.warmup_fraction *
                                           static_cast<double>(f.workload.requests.size())))
        << design.name;
    EXPECT_LE(m.max_link_transfers, m.request_count) << design.name;
    EXPECT_LE(m.max_origin_served, m.total_origin_served) << design.name;
  }
}

TEST(Simulator, NoCacheServesEverythingAtOrigin) {
  Fixture f;
  const SimulationMetrics m =
      run_design(f.network, f.origins, no_cache(), f.config, f.workload);
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.total_origin_served, m.request_count);
  EXPECT_GT(m.mean_hops(), 3.0);  // at least the tree climb
}

TEST(Simulator, EdgeOnlyPlacesCachesAtLeavesOnly) {
  Fixture f;
  Simulator sim(f.network, f.origins, edge(), f.config);
  for (topology::GlobalNodeId n = 0; n < f.network.node_count(); ++n) {
    const bool is_leaf = f.network.level_of(n) == f.network.tree().depth();
    EXPECT_EQ(sim.is_cache_site(n), is_leaf);
    if (!is_leaf) {
      EXPECT_EQ(sim.cache_at(n), nullptr);
    }
  }
  const SimulationMetrics m = sim.run(f.workload);
  // All cache hits happen at leaf level.
  for (unsigned level = 0; level < f.network.tree().depth(); ++level) {
    EXPECT_EQ(m.served_per_level[level], 0u);
  }
}

TEST(Simulator, TwoLevelsPlacesCachesAtBottomTwoLevels) {
  Fixture f;
  Simulator sim(f.network, f.origins, two_levels(), f.config);
  for (topology::GlobalNodeId n = 0; n < f.network.node_count(); ++n) {
    const unsigned level = f.network.level_of(n);
    EXPECT_EQ(sim.is_cache_site(n), level + 1 >= f.network.tree().depth());
  }
}

TEST(Simulator, PervasiveEquipsEveryNode) {
  Fixture f;
  Simulator sim(f.network, f.origins, icn_sp(), f.config);
  for (topology::GlobalNodeId n = 0; n < f.network.node_count(); ++n) {
    EXPECT_TRUE(sim.is_cache_site(n));
  }
}

TEST(Simulator, SiblingCooperationProducesSiblingHits) {
  Fixture f;
  const SimulationMetrics coop =
      run_design(f.network, f.origins, edge_coop(), f.config, f.workload);
  const SimulationMetrics plain =
      run_design(f.network, f.origins, edge(), f.config, f.workload);
  EXPECT_GT(coop.sibling_hits, 0u);
  EXPECT_EQ(plain.sibling_hits, 0u);
  // Cooperation can only help the hit ratio.
  EXPECT_GE(coop.cache_hit_ratio(), plain.cache_hit_ratio());
}

TEST(Simulator, EdgeNormDoublesLeafCapacityOnBinaryTrees) {
  Fixture f;
  Simulator plain(f.network, f.origins, edge(), f.config);
  Simulator normalized(f.network, f.origins, edge_norm(), f.config);
  const topology::GlobalNodeId leaf = f.network.leaf(0, 0);
  ASSERT_NE(plain.cache_at(leaf), nullptr);
  ASSERT_NE(normalized.cache_at(leaf), nullptr);
  // 15-node tree with 8 leaves: scaling factor 15/8.
  const double ratio = static_cast<double>(normalized.cache_at(leaf)->capacity_units()) /
                       static_cast<double>(plain.cache_at(leaf)->capacity_units());
  EXPECT_NEAR(ratio, 15.0 / 8.0, 0.05);
}

TEST(Simulator, PrefillFillsFiniteCaches) {
  Fixture f;
  SimulationConfig config = f.config;
  config.prefill = true;
  Simulator sim(f.network, f.origins, edge(), config);
  const SimulationMetrics m = sim.run(f.workload);
  // After the run (which began prefilled) leaf caches are at capacity.
  const auto* cache = sim.cache_at(f.network.leaf(0, 0));
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->used_units(), cache->capacity_units());
  EXPECT_GT(m.own_leaf_hits, 0u);
}

TEST(Simulator, ColdStartUnderstatesEdgeCaching) {
  // The methodological point: without prefill+warmup, EDGE looks far worse
  // relative to ICN than in steady state.
  Fixture f;
  SimulationConfig cold = f.config;
  cold.prefill = false;
  cold.warmup_fraction = 0.0;
  SimulationConfig warm = f.config;

  const auto gap = [&](const SimulationConfig& config) {
    const ComparisonResult cmp = compare_designs(f.network, f.origins,
                                                 {icn_nr(), edge()}, config, f.workload);
    return cmp.designs[0].improvements.latency_pct -
           cmp.designs[1].improvements.latency_pct;
  };
  EXPECT_GT(gap(cold), gap(warm));
}

TEST(Simulator, NearestReplicaAtLeastAsGoodAsShortestPath) {
  Fixture f;
  const ComparisonResult cmp = compare_designs(f.network, f.origins,
                                               {icn_sp(), icn_nr()}, f.config, f.workload);
  EXPECT_GE(cmp.designs[1].improvements.latency_pct,
            cmp.designs[0].improvements.latency_pct - 0.5);
}

TEST(Simulator, LatencyModelChangesWeightedLatencyNotHops) {
  const topology::AccessTreeShape tree(2, 3);
  topology::HierarchicalNetwork uniform(topology::make_abilene(), tree);
  topology::HierarchicalNetwork weighted(topology::make_abilene(), tree,
                                         topology::LatencyModel::core_weighted(3, 10.0));
  const BoundWorkload workload = Fixture::make_workload(uniform, 20000, 2000, 1.0, 0.0);
  const OriginMap origins(uniform, 2000, OriginAssignment::PopulationProportional, 77);
  SimulationConfig config;

  const SimulationMetrics mu = run_design(uniform, origins, edge(), config, workload);
  const SimulationMetrics mw = run_design(weighted, origins, edge(), config, workload);
  EXPECT_EQ(mu.total_hops, mw.total_hops);
  EXPECT_GT(mw.total_latency, mu.total_latency);
}

TEST(Simulator, ServingCapacityRedirectsLoad) {
  Fixture f;
  SimulationConfig limited = f.config;
  limited.serving_capacity = 3;
  limited.capacity_window = 100;
  const SimulationMetrics m =
      run_design(f.network, f.origins, icn_sp(), limited, f.workload);
  EXPECT_GT(m.capacity_redirects, 0u);
  // Conservation still holds.
  EXPECT_EQ(m.cache_hits + m.total_origin_served, m.request_count);

  const SimulationMetrics unlimited =
      run_design(f.network, f.origins, icn_sp(), f.config, f.workload);
  // Limiting caches pushes more traffic to origins.
  EXPECT_GE(m.total_origin_served, unlimited.total_origin_served);
}

TEST(Simulator, ServingCapacityWorksWithNearestReplica) {
  Fixture f;
  SimulationConfig limited = f.config;
  limited.serving_capacity = 3;
  limited.capacity_window = 100;
  const SimulationMetrics m =
      run_design(f.network, f.origins, icn_nr(), limited, f.workload);
  EXPECT_EQ(m.cache_hits + m.total_origin_served, m.request_count);
}

TEST(Simulator, HeterogeneousSizesRespectByteBudgets) {
  topology::HierarchicalNetwork network(topology::make_abilene(),
                                        topology::AccessTreeShape(2, 3));
  SyntheticWorkloadSpec spec;
  spec.request_count = 20'000;
  spec.object_count = 2'000;
  spec.alpha = 1.0;
  spec.seed = 5;
  spec.sizes = workload::SizeModel(workload::SizeModelKind::LogNormal, 8.0);
  const BoundWorkload workload = bind_synthetic(network, spec);
  const OriginMap origins(network, 2000, OriginAssignment::PopulationProportional, 77);

  SimulationConfig config;
  // Budget is in objects; with mean size 8 treat it as units directly — the
  // point is that used_units never exceeds capacity.
  Simulator sim(network, origins, edge(), config);
  const SimulationMetrics m = sim.run(workload);
  EXPECT_EQ(m.cache_hits + m.total_origin_served, m.request_count);
  for (topology::GlobalNodeId n = 0; n < network.node_count(); ++n) {
    if (const auto* cache = sim.cache_at(n)) {
      EXPECT_LE(cache->used_units(), cache->capacity_units());
    }
  }
}

TEST(Simulator, OriginPopRootDoesNotCacheItsOwnObjects) {
  Fixture f;
  Simulator sim(f.network, f.origins, icn_sp(), f.config);
  (void)sim.run(f.workload);
  for (topology::PopId pop = 0; pop < f.network.pop_count(); ++pop) {
    const auto* cache = sim.cache_at(f.network.pop_root(pop));
    if (cache == nullptr) continue;
    for (std::uint32_t object = 0; object < f.workload.object_count; ++object) {
      if (f.origins.origin_pop(object) == pop) {
        EXPECT_FALSE(cache->contains(object))
            << "origin pop " << pop << " cached its own object " << object;
      }
    }
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  Fixture f;
  const SimulationMetrics a =
      run_design(f.network, f.origins, icn_nr(), f.config, f.workload);
  const SimulationMetrics b =
      run_design(f.network, f.origins, icn_nr(), f.config, f.workload);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.max_link_transfers, b.max_link_transfers);
  EXPECT_EQ(a.origin_served, b.origin_served);
}

TEST(Simulator, InvalidConfigThrowsAtConstruction) {
  // Validation happens in the constructor — before prefill or replay can
  // burn work or mutate cache state on a config that was never runnable.
  Fixture f;
  SimulationConfig bad_warmup = f.config;
  bad_warmup.warmup_fraction = 1.0;
  EXPECT_THROW(Simulator(f.network, f.origins, edge(), bad_warmup),
               std::invalid_argument);
  bad_warmup.warmup_fraction = -0.1;
  EXPECT_THROW(Simulator(f.network, f.origins, edge(), bad_warmup),
               std::invalid_argument);

  SimulationConfig bad_budget = f.config;
  bad_budget.budget_fraction = 0.0;
  EXPECT_THROW(Simulator(f.network, f.origins, edge(), bad_budget),
               std::invalid_argument);
  bad_budget.budget_fraction = 1.5;
  EXPECT_THROW(Simulator(f.network, f.origins, edge(), bad_budget),
               std::invalid_argument);

  SimulationConfig bad_window = f.config;
  bad_window.capacity_window = 0;
  EXPECT_THROW(Simulator(f.network, f.origins, edge(), bad_window),
               std::invalid_argument);

  // compare_designs surfaces a worker-thread failure as a normal exception
  // on the calling thread instead of std::terminate.
  EXPECT_THROW((void)compare_designs(f.network, f.origins, {icn_nr(), edge()},
                                     bad_window, f.workload),
               std::invalid_argument);
}

// --- experiment runner -------------------------------------------------------

TEST(Experiment, CompareDesignsComputesGaps) {
  Fixture f;
  const ComparisonResult cmp = compare_designs(
      f.network, f.origins, {icn_nr(), edge()}, f.config, f.workload);
  ASSERT_EQ(cmp.designs.size(), 2u);
  EXPECT_EQ(cmp.baseline.cache_hits, 0u);
  const Improvements gap = cmp.gap(0, 1);
  EXPECT_NEAR(gap.latency_pct, cmp.designs[0].improvements.latency_pct -
                                   cmp.designs[1].improvements.latency_pct,
              1e-12);
  EXPECT_EQ(cmp.by_name("EDGE").design.name, "EDGE");
  EXPECT_THROW((void)cmp.by_name("NOPE"), std::out_of_range);
}

TEST(Experiment, SpatialSkewWidensIcnAdvantage) {
  // Figure 8c's direction: higher skew favors ICN-NR over EDGE. In our
  // warm steady-state methodology the effect shows most robustly on the
  // origin-load gap — pervasive pop-root caches already act as a
  // distributed second-level cache, which absorbs most of the skew benefit
  // on mean latency (see EXPERIMENTS.md).
  const auto gap = [](double skew) {
    topology::HierarchicalNetwork network(topology::make_topology("Telstra"),
                                          topology::AccessTreeShape(2, 4));
    SyntheticWorkloadSpec spec;
    spec.request_count = 60'000;
    spec.object_count = 6'000;
    spec.alpha = 1.0;
    spec.spatial_skew = skew;
    spec.seed = 5;
    const BoundWorkload workload = bind_synthetic(network, spec);
    const OriginMap origins(network, spec.object_count,
                            OriginAssignment::PopulationProportional, 77);
    const SimulationConfig config;
    const ComparisonResult cmp =
        compare_designs(network, origins, {icn_nr(), edge()}, config, workload);
    return cmp.gap(0, 1).origin_load_pct;
  };
  EXPECT_GT(gap(1.0), gap(0.0));
}

// --- origin map ---------------------------------------------------------------

TEST(OriginMap, ProportionalFollowsPopulation) {
  const topology::HierarchicalNetwork net(topology::make_abilene(),
                                          topology::AccessTreeShape(2, 2));
  const OriginMap origins(net, 50'000, OriginAssignment::PopulationProportional, 9);
  const auto counts = origins.objects_per_pop(net.pop_count());
  // NY (19.8) ≫ Sunnyvale (1.9).
  EXPECT_GT(counts[10], counts[1] * 5);
  std::uint32_t total = 0;
  for (const std::uint32_t c : counts) total += c;
  EXPECT_EQ(total, 50'000u);
}

TEST(OriginMap, UniformIsRoughlyBalanced) {
  const topology::HierarchicalNetwork net(topology::make_abilene(),
                                          topology::AccessTreeShape(2, 2));
  const OriginMap origins(net, 55'000, OriginAssignment::Uniform, 9);
  const auto counts = origins.objects_per_pop(net.pop_count());
  for (const std::uint32_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 5000.0, 500.0);
  }
}

TEST(OriginMap, Deterministic) {
  const topology::HierarchicalNetwork net(topology::make_abilene(),
                                          topology::AccessTreeShape(2, 2));
  const OriginMap a(net, 1000, OriginAssignment::PopulationProportional, 5);
  const OriginMap b(net, 1000, OriginAssignment::PopulationProportional, 5);
  for (std::uint32_t o = 0; o < 1000; ++o) {
    EXPECT_EQ(a.origin_pop(o), b.origin_pop(o));
  }
}

}  // namespace
