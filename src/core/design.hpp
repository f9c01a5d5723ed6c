// The caching design space (§3): cache placement × request routing ×
// cooperation × budget scaling.
//
// Representative designs from the paper:
//   ICN-SP      — pervasive caches, shortest-path-to-origin routing
//   ICN-NR      — pervasive caches, (zero-cost) nearest-replica routing
//   EDGE        — leaf caches only, shortest path
//   EDGE-Coop   — EDGE + sibling scoped lookup
//   EDGE-Norm   — EDGE with budgets scaled so its total equals pervasive's
// and the Figure-10 extensions (2-Levels, 2-Levels-Coop, Norm-Coop,
// Double-Budget-Coop). Figure 10's Inf-Budget point is reported
// analytically (bench_fig10_bridge_gap), so no design models it.
#pragma once

#include <string>

#include "cache/cache.hpp"

namespace idicn::core {

/// Which routers carry a content cache.
enum class Placement {
  Pervasive,  ///< every router (all access-tree nodes, incl. pop roots)
  EdgeOnly,   ///< access-tree leaves only
  TwoLevels   ///< leaves plus their immediate parents
};

/// How requests locate content.
enum class Routing {
  ShortestPathToOrigin,  ///< climb to the origin, serve from any cache en route
  NearestReplica,        ///< route to the closest copy (zero lookup cost)
  /// §3's "intermediate strategy": a scoped nearest-replica lookup — use
  /// the closest copy only if it lies within `scoped_radius` of the
  /// requesting leaf, otherwise revert to shortest-path-to-origin.
  ScopedNearestReplica
};

/// What the response path stores (the third axis of the caching design
/// space; the paper fixes leave-copy-everywhere, the broader ICN literature
/// — LCD, ProbCache — asks whether smarter decisions change the picture).
enum class CacheDecision {
  LeaveCopyEverywhere,  ///< every cache-equipped node on the path stores (paper)
  LeaveCopyDown,        ///< only the node one hop below the serving node stores
  Probabilistic         ///< each node stores independently with `cache_probability`
};

/// How per-node budgets from the provisioning plan are scaled for the
/// cache-equipped nodes of this design.
enum class BudgetScaling {
  None,                      ///< use the plan's per-node budget as-is
  NormalizeToPervasiveTotal  ///< scale so Σ(equipped) == Σ(all routers)
};

struct DesignSpec {
  std::string name;
  Placement placement = Placement::Pervasive;
  Routing routing = Routing::ShortestPathToOrigin;
  bool sibling_cooperation = false;  ///< scoped lookup at the leaf's siblings
  BudgetScaling scaling = BudgetScaling::None;
  double extra_budget_multiplier = 1.0;  ///< applied after scaling
  cache::PolicyKind policy = cache::PolicyKind::Lru;

  CacheDecision cache_decision = CacheDecision::LeaveCopyEverywhere;
  double cache_probability = 1.0;  ///< for CacheDecision::Probabilistic
  double scoped_radius = 0.0;      ///< for Routing::ScopedNearestReplica
  bool admission_doorkeeper = false;  ///< second-sighting admission filter

  /// Partial edge deployment (§4.3's incremental-deployment argument):
  /// when < 1, only this fraction of PoPs (a deterministic subset) carry
  /// edge caches at all; the rest run cacheless. Applies to the placement's
  /// cache sites.
  double deployment_fraction = 1.0;
};

// --- the paper's representative designs (§4.1) -------------------------
[[nodiscard]] DesignSpec icn_sp();
[[nodiscard]] DesignSpec icn_nr();
[[nodiscard]] DesignSpec edge();
[[nodiscard]] DesignSpec edge_coop();
[[nodiscard]] DesignSpec edge_norm();

// --- Figure-10 extensions ----------------------------------------------
[[nodiscard]] DesignSpec two_levels();
[[nodiscard]] DesignSpec two_levels_coop();
[[nodiscard]] DesignSpec norm_coop();
[[nodiscard]] DesignSpec double_budget_coop();

// --- extension designs ---------------------------------------------------
/// Pervasive caches, nearest replica only within `radius` of the leaf.
[[nodiscard]] DesignSpec icn_scoped_nr(double radius);
/// ICN-SP with leave-copy-down instead of leave-copy-everywhere.
[[nodiscard]] DesignSpec icn_sp_lcd();
/// ICN-SP caching probabilistically with probability p on the path.
[[nodiscard]] DesignSpec icn_sp_prob(double p);
/// EDGE deployed at only a fraction of PoPs (§4.3 incremental deployment).
[[nodiscard]] DesignSpec edge_partial(double deployment_fraction);

/// A design with zero cache everywhere — the normalization baseline
/// ("a system without any caching infrastructure", §4.2).
[[nodiscard]] DesignSpec no_cache();

}  // namespace idicn::core
