#include "testbed/comparison.hpp"

#include <cmath>
#include <cstdio>

namespace idicn::testbed {

core::DesignSpec counterpart_design(bool cooperation) {
  core::DesignSpec design = core::edge();
  if (cooperation) {
    // The oracle upper bound of the hint protocol: leaf caches with
    // zero-cost, always-current nearest-replica lookup.
    design.name = "EDGE-Coop-NR";
    design.routing = core::Routing::NearestReplica;
  }
  return design;
}

core::SimulationConfig counterpart_config(const ClusterOptions& options) {
  core::SimulationConfig config;
  config.budget_fraction = options.cache_fraction;
  config.split = cache::BudgetSplit::Uniform;
  config.origin_assignment = kOriginAssignment;
  config.seed = options.seed;
  // The testbed starts cold; so must its counterpart.
  config.prefill = false;
  config.warmup_fraction = 0.0;
  return config;
}

std::string ComparisonResult::summary() const {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "%s: origin load testbed=%llu sim=%llu (gap %.2f%%), "
                "cache-served testbed=%llu sim=%llu",
                simulated.design_name.c_str(),
                static_cast<unsigned long long>(testbed_origin_served),
                static_cast<unsigned long long>(simulated_origin_served),
                origin_load_gap_pct,
                static_cast<unsigned long long>(testbed_cache_served),
                static_cast<unsigned long long>(simulated_cache_served));
  return buffer;
}

ComparisonResult compare_with_simulator(const Cluster& cluster,
                                        const core::BoundWorkload& workload,
                                        const TestbedMetrics& testbed) {
  ComparisonResult result;
  result.simulated = core::run_design(
      cluster.network(), cluster.origins(),
      counterpart_design(cluster.options().cooperation),
      counterpart_config(cluster.options()), workload);
  result.testbed_origin_served = testbed.origin_served;
  result.simulated_origin_served = result.simulated.total_origin_served;
  result.testbed_cache_served =
      testbed.hits + testbed.stream_joins + testbed.sibling_serves;
  result.simulated_cache_served = result.simulated.cache_hits;
  if (result.simulated_origin_served != 0) {
    const double testbed_load =
        static_cast<double>(result.testbed_origin_served);
    const double simulated_load =
        static_cast<double>(result.simulated_origin_served);
    result.origin_load_gap_pct =
        100.0 * std::abs(testbed_load - simulated_load) / simulated_load;
  }
  return result;
}

}  // namespace idicn::testbed
