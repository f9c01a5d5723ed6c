// The request-level simulator (§4.1–§4.2).
//
// Replays a bound workload over a hierarchical network under one caching
// design. Modeling choices follow the paper:
//   * request granularity — no packets, TCP, or router queueing;
//   * routing/lookup are free for ICN designs (conservatively generous);
//   * every cache-equipped node on the response path stores the object;
//   * latency = distance (hops, or weighted cost under non-uniform latency
//     models) between the arrival leaf and the serving node;
//   * congestion = per-link count of object transfers (responses);
//   * origin load = per-PoP count of requests served from origin stores;
//   * optional per-cache serving capacity: an overloaded cache passes the
//     request to the next cache on the query path / next-nearest replica
//     (§5 "request serving capacity").
#pragma once

#include <functional>
#include <memory>
#include <memory_resource>
#include <optional>
#include <random>

#include "cache/budget.hpp"
#include "cache/cache.hpp"
#include "core/bound_workload.hpp"
#include "core/design.hpp"
#include "core/holder_index.hpp"
#include "core/metrics.hpp"
#include "core/origin_map.hpp"
#include "topology/network.hpp"

namespace idicn::core {

struct SimulationConfig {
  /// Per-router capacity as a fraction of the object universe (F, §4.1).
  double budget_fraction = 0.05;
  cache::BudgetSplit split = cache::BudgetSplit::PopulationProportional;
  OriginAssignment origin_assignment = OriginAssignment::PopulationProportional;
  std::uint64_t seed = 42;  ///< cache-policy internal randomness (RANDOM)

  /// Steady-state methodology. The paper simulates one day of a CDN that
  /// has been running long before the measurement window, so caches are
  /// warm. We model that by (a) prefilling every finite cache with the most
  /// popular objects of its PoP's ranking (the LRU fixed point under
  /// leave-copy-everywhere) and (b) replaying the first `warmup_fraction`
  /// of the workload without recording metrics. Cold-start runs (both
  /// knobs off) heavily overstate the value of interior caches, because
  /// interior nodes aggregate request streams and warm much faster than
  /// the edge.
  bool prefill = true;
  double warmup_fraction = 0.25;

  /// When set, each cache may serve at most this many requests per window
  /// of `capacity_window` consecutive requests.
  std::optional<std::uint32_t> serving_capacity;
  std::uint32_t capacity_window = 1000;
};

/// One design × one network × one workload run. Construct fresh per run —
/// cache state is not reusable across workloads. Not movable: its caches
/// allocate from a pool it owns.
class Simulator {
public:
  /// Throws std::invalid_argument when `config` is out of range
  /// (warmup_fraction outside [0, 1), budget_fraction outside (0, 1], or
  /// capacity_window == 0) — validated here, before any prefill or replay
  /// work, so a bad config can never burn work or mutate cache state first.
  Simulator(const topology::HierarchicalNetwork& network, const OriginMap& origins,
            DesignSpec design, SimulationConfig config);

  /// Replay the workload and return the metrics. Call it once per
  /// Simulator: the warm start assumes empty caches.
  [[nodiscard]] SimulationMetrics run(const BoundWorkload& workload);

  /// True when this design equips `node` with a cache (regardless of
  /// whether its budget rounded to zero).
  [[nodiscard]] bool is_cache_site(topology::GlobalNodeId node) const;

  /// The cache at `node`, or nullptr (exposed for tests).
  [[nodiscard]] const cache::Cache* cache_at(topology::GlobalNodeId node) const {
    return caches_[node].get();
  }

  /// The replica index, or nullptr for shortest-path-only designs
  /// (exposed for tests: the consistency suite cross-checks it against a
  /// brute-force scan of every cache).
  [[nodiscard]] const HolderIndex* holder_index() const {
    return holders_ ? &*holders_ : nullptr;
  }

  /// Test/debug hook: invoked after each request — and all of its cache
  /// and holder-index mutations — with the request's index in the
  /// workload. Costs one predicted branch per request when unset.
  void set_request_observer(std::function<void(std::size_t)> observer) {
    request_observer_ = std::move(observer);
  }

private:
  struct ServeDecision {
    topology::GlobalNodeId node = 0;
    bool from_origin = false;
    bool via_sibling = false;
  };

  [[nodiscard]] ServeDecision decide_shortest_path(const BoundRequest& request,
                                                   topology::GlobalNodeId leaf_node,
                                                   topology::GlobalNodeId origin_node);
  [[nodiscard]] ServeDecision decide_nearest_replica(const BoundRequest& request,
                                                     topology::GlobalNodeId leaf_node,
                                                     topology::GlobalNodeId origin_node,
                                                     double origin_cost);

  /// Memoized distance(leaf of `pop`, root of `origin_pop`): every leaf
  /// sits at the same level, so the origin cost depends only on the PoP
  /// pair, and the replica-routing decision loop would otherwise recompute
  /// the same LCA walk for every request.
  [[nodiscard]] double origin_cost(topology::PopId pop, topology::PopId origin_pop) {
    metrics_.perf.bump(&PerfCounters::origin_cost_memo_hits);
    return origin_cost_[static_cast<std::size_t>(pop) * network_.pop_count() +
                        origin_pop];
  }
  /// Store along the response path per the design's CacheDecision.
  void apply_cache_decision(const std::vector<topology::GlobalNodeId>& response,
                            std::uint32_t object, std::uint64_t size,
                            topology::PopId origin_pop);
  [[nodiscard]] std::optional<ServeDecision> try_local(const BoundRequest& request,
                                                       topology::GlobalNodeId leaf_node);

  [[nodiscard]] bool has_serving_capacity(topology::GlobalNodeId node) const;
  void note_served(topology::GlobalNodeId node);

  /// Insert `object` into the cache at `node` (if any), keeping the holder
  /// index in sync. Never caches an object into its own origin's regular
  /// cache (the origin store already holds it).
  void store_on_path(std::uint32_t object, std::uint64_t size,
                     topology::GlobalNodeId node, topology::PopId origin_pop);

  /// Fill every finite cache with the top objects of its PoP's popularity
  /// order (most popular ends most-recently-used): one cache per group of
  /// identical caches by Cache::warm_start from the order's shared image,
  /// the rest by Cache::copy_from, and each PoP root by inserts.
  void prefill(const BoundWorkload& workload);

  const topology::HierarchicalNetwork& network_;
  const OriginMap& origins_;
  DesignSpec design_;
  SimulationConfig config_;

  /// Serves every LruCache's table and bitset, so that the small tables of
  /// thousands of caches, and their growth during replay, rarely reach
  /// operator new. Declared before caches_, which must be destroyed first.
  std::pmr::unsynchronized_pool_resource cache_memory_;
  std::vector<std::unique_ptr<cache::Cache>> caches_;
  std::optional<HolderIndex> holders_;  ///< engaged for replica routing modes
  std::vector<double> origin_cost_;  ///< leaf→origin-root cost per PoP pair
  std::function<void(std::size_t)> request_observer_;  ///< test hook
  std::vector<std::uint32_t> served_in_window_;
  std::uint64_t window_cursor_ = 0;
  std::vector<cache::ObjectId> eviction_scratch_;
  /// The current request's core path (pop ids) during the shortest-path
  /// decision, then its response path (global node ids).
  std::vector<topology::GlobalNodeId> path_scratch_;
  /// Measured object transfers and bytes per link; run() returns only
  /// their maxima.
  std::vector<std::uint64_t> link_transfers_;
  std::vector<double> link_bytes_;
  std::mt19937_64 decision_rng_{0};  ///< probabilistic cache decision coins
  SimulationMetrics metrics_;
};

/// Convenience: construct and run in one call.
[[nodiscard]] SimulationMetrics run_design(const topology::HierarchicalNetwork& network,
                                           const OriginMap& origins,
                                           const DesignSpec& design,
                                           const SimulationConfig& config,
                                           const BoundWorkload& workload);

}  // namespace idicn::core
