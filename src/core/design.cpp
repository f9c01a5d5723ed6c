#include "core/design.hpp"

namespace idicn::core {

DesignSpec icn_sp() {
  DesignSpec d;
  d.name = "ICN-SP";
  d.placement = Placement::Pervasive;
  d.routing = Routing::ShortestPathToOrigin;
  return d;
}

DesignSpec icn_nr() {
  DesignSpec d;
  d.name = "ICN-NR";
  d.placement = Placement::Pervasive;
  d.routing = Routing::NearestReplica;
  return d;
}

DesignSpec edge() {
  DesignSpec d;
  d.name = "EDGE";
  d.placement = Placement::EdgeOnly;
  d.routing = Routing::ShortestPathToOrigin;
  return d;
}

DesignSpec edge_coop() {
  DesignSpec d = edge();
  d.name = "EDGE-Coop";
  d.sibling_cooperation = true;
  return d;
}

DesignSpec edge_norm() {
  DesignSpec d = edge();
  d.name = "EDGE-Norm";
  d.scaling = BudgetScaling::NormalizeToPervasiveTotal;
  return d;
}

DesignSpec two_levels() {
  DesignSpec d;
  d.name = "2-Levels";
  d.placement = Placement::TwoLevels;
  d.routing = Routing::ShortestPathToOrigin;
  return d;
}

DesignSpec two_levels_coop() {
  DesignSpec d = two_levels();
  d.name = "2-Levels-Coop";
  d.sibling_cooperation = true;
  return d;
}

DesignSpec norm_coop() {
  DesignSpec d = edge_norm();
  d.name = "Norm-Coop";
  d.sibling_cooperation = true;
  return d;
}

DesignSpec double_budget_coop() {
  DesignSpec d = norm_coop();
  d.name = "Double-Budget-Coop";
  d.extra_budget_multiplier = 2.0;
  return d;
}

DesignSpec icn_scoped_nr(double radius) {
  DesignSpec d = icn_nr();
  d.name = "ICN-ScopedNR-" + std::to_string(static_cast<int>(radius));
  d.routing = Routing::ScopedNearestReplica;
  d.scoped_radius = radius;
  return d;
}

DesignSpec icn_sp_lcd() {
  DesignSpec d = icn_sp();
  d.name = "ICN-SP-LCD";
  d.cache_decision = CacheDecision::LeaveCopyDown;
  return d;
}

DesignSpec icn_sp_prob(double p) {
  DesignSpec d = icn_sp();
  d.name = "ICN-SP-Prob" + std::to_string(static_cast<int>(p * 100));
  d.cache_decision = CacheDecision::Probabilistic;
  d.cache_probability = p;
  return d;
}

DesignSpec edge_partial(double deployment_fraction) {
  DesignSpec d = edge();
  d.name = "EDGE-" + std::to_string(static_cast<int>(deployment_fraction * 100)) + "pct";
  d.deployment_fraction = deployment_fraction;
  return d;
}

DesignSpec no_cache() {
  DesignSpec d;
  d.name = "NO-CACHE";
  d.placement = Placement::EdgeOnly;
  d.routing = Routing::ShortestPathToOrigin;
  d.extra_budget_multiplier = 0.0;
  return d;
}

}  // namespace idicn::core
