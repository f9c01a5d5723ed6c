// Simulation outputs (§4.2): response latency, per-link congestion, and
// origin server load, plus diagnostic breakdowns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/perf_counters.hpp"

namespace idicn::core {

struct SimulationMetrics {
  std::string design_name;
  std::uint64_t request_count = 0;

  // Latency: the paper reports hops; under non-uniform latency models the
  // weighted cost and the raw hop count diverge, so we track both.
  double total_latency = 0.0;
  std::uint64_t total_hops = 0;

  // Congestion: object transfers on the busiest link ("the congestion on a
  // link is measured as the number of object transfers traversing that
  // link"). The per-link counts are simulator scratch, not returned.
  std::uint64_t max_link_transfers = 0;
  double max_link_bytes = 0.0;  ///< size-weighted variant

  // Origin load: requests served by each origin PoP from its origin store.
  std::vector<std::uint64_t> origin_served;
  std::uint64_t max_origin_served = 0;
  std::uint64_t total_origin_served = 0;

  // Per-PoP latency breakdown (the §4.3 incremental-deployment analysis:
  // a deploying PoP's benefit must not depend on other PoPs deploying).
  std::vector<double> pop_latency;          ///< summed request latency per pop
  std::vector<std::uint64_t> pop_requests;  ///< measured requests per pop

  [[nodiscard]] double pop_mean_latency(std::size_t pop) const {
    return pop_requests[pop] ? pop_latency[pop] /
                                   static_cast<double>(pop_requests[pop])
                             : 0.0;
  }

  // Serving-location breakdown: served_per_level[l] = requests served by a
  // cache at tree level l (0 = pop root … depth = leaf); origin serves are
  // counted separately in total_origin_served.
  std::vector<std::uint64_t> served_per_level;
  std::uint64_t own_leaf_hits = 0;   ///< served by the arrival leaf itself
  std::uint64_t sibling_hits = 0;    ///< served via scoped sibling cooperation
  std::uint64_t cache_hits = 0;      ///< all cache-served requests
  std::uint64_t capacity_redirects = 0;  ///< serves skipped due to overload

  // Hot-path instrumentation for the run (holder-index walk lengths, memo
  // hits, …). All-zero when built with -DIDICN_PERF_COUNTERS=OFF.
  PerfCounters perf;

  [[nodiscard]] double mean_latency() const {
    return request_count ? total_latency / static_cast<double>(request_count) : 0.0;
  }
  [[nodiscard]] double mean_hops() const {
    return request_count
               ? static_cast<double>(total_hops) / static_cast<double>(request_count)
               : 0.0;
  }
  [[nodiscard]] double cache_hit_ratio() const {
    return request_count
               ? static_cast<double>(cache_hits) / static_cast<double>(request_count)
               : 0.0;
  }
};

/// Normalized improvements over the no-cache baseline (§4.2): higher is
/// better; each is 100·(base − value)/base.
struct Improvements {
  double latency_pct = 0.0;
  double congestion_pct = 0.0;
  double origin_load_pct = 0.0;
};

[[nodiscard]] Improvements compute_improvements(const SimulationMetrics& baseline,
                                                const SimulationMetrics& design);

}  // namespace idicn::core
