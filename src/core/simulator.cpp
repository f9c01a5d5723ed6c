#include "core/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cache/admission.hpp"

namespace idicn::core {

using topology::GlobalNodeId;
using topology::PopId;
using topology::TreeIndex;

Simulator::Simulator(const topology::HierarchicalNetwork& network,
                     const OriginMap& origins, DesignSpec design,
                     SimulationConfig config)
    : network_(network),
      origins_(origins),
      design_(std::move(design)),
      config_(config) {
  // Reject bad configs before any budget/prefill/replay work happens, so an
  // invalid run can never mutate cache state or burn a prefill first.
  if (config_.warmup_fraction < 0.0 || config_.warmup_fraction >= 1.0) {
    throw std::invalid_argument("Simulator: warmup_fraction must be in [0, 1)");
  }
  if (!(config_.budget_fraction > 0.0 && config_.budget_fraction <= 1.0)) {
    throw std::invalid_argument("Simulator: budget_fraction must be in (0, 1]");
  }
  if (config_.capacity_window == 0) {
    throw std::invalid_argument("Simulator: capacity_window must be > 0");
  }

  const cache::BudgetPlan plan = cache::compute_budget(
      network_, config_.budget_fraction, origins_.object_count(), config_.split);

  // EDGE-Norm: scale the equipped nodes' budgets so their total matches the
  // full (all-routers) plan total.
  double scale = design_.extra_budget_multiplier;
  if (design_.scaling == BudgetScaling::NormalizeToPervasiveTotal) {
    std::uint64_t equipped_total = 0;
    for (GlobalNodeId n = 0; n < network_.node_count(); ++n) {
      if (is_cache_site(n)) equipped_total += plan.per_node[n];
    }
    if (equipped_total > 0) {
      scale *= static_cast<double>(plan.total()) / static_cast<double>(equipped_total);
    }
  }

  caches_.resize(network_.node_count());
  for (GlobalNodeId n = 0; n < network_.node_count(); ++n) {
    if (!is_cache_site(n)) continue;
    const auto capacity = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(plan.per_node[n]) * scale));
    if (capacity == 0) continue;  // a zero-budget site has no cache at all
    caches_[n] =
        cache::make_cache(design_.policy, capacity, config_.seed ^ n, &cache_memory_);
    if (design_.admission_doorkeeper) {
      caches_[n] = std::make_unique<cache::AdmissionFilteredCache>(
          std::move(caches_[n]), std::max<std::size_t>(64, capacity));
    }
  }

  if (design_.routing != Routing::ShortestPathToOrigin) {
    holders_.emplace(network_);
    // Origin-cost memo: leaves all sit at the same tree level, so the
    // leaf→origin-root distance depends only on the (pop, origin pop) pair.
    const PopId pops = network_.pop_count();
    origin_cost_.resize(static_cast<std::size_t>(pops) * pops);
    for (PopId p = 0; p < pops; ++p) {
      for (PopId q = 0; q < pops; ++q) {
        origin_cost_[static_cast<std::size_t>(p) * pops + q] =
            network_.distance(network_.leaf(p, 0), network_.pop_root(q));
      }
    }
  }
  if (config_.serving_capacity) {
    served_in_window_.assign(network_.node_count(), 0);
  }
  decision_rng_.seed(config_.seed ^ 0xdec15104ULL);
}

bool Simulator::is_cache_site(GlobalNodeId node) const {
  // Partial deployment: only a deterministic subset of PoPs run caches at
  // all. The subset depends solely on (pop, seed), so different designs
  // with the same fraction deploy at the same PoPs.
  if (design_.deployment_fraction < 1.0) {
    const PopId pop = network_.pop_of(node);
    std::uint64_t h = (static_cast<std::uint64_t>(pop) + 1) *
                      0x9e3779b97f4a7c15ULL ^ (config_.seed * 0xbf58476d1ce4e5b9ULL);
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 29;
    const double u = static_cast<double>(h % 1'000'000) / 1'000'000.0;
    if (u >= design_.deployment_fraction) return false;
  }

  const unsigned level = network_.level_of(node);
  const unsigned depth = network_.tree().depth();
  switch (design_.placement) {
    case Placement::Pervasive: return true;
    case Placement::EdgeOnly: return level == depth;
    case Placement::TwoLevels: return depth == 0 || level >= depth - 1;
  }
  return false;
}

bool Simulator::has_serving_capacity(GlobalNodeId node) const {
  if (!config_.serving_capacity) return true;
  return served_in_window_[node] < *config_.serving_capacity;
}

void Simulator::note_served(GlobalNodeId node) {
  if (!config_.serving_capacity) return;
  ++served_in_window_[node];
}

void Simulator::store_on_path(std::uint32_t object, std::uint64_t size,
                              GlobalNodeId node, PopId origin_pop) {
  cache::Cache* cache = caches_[node].get();
  if (cache == nullptr) return;
  // The origin PoP root never stores its own objects in its regular cache:
  // its origin store already holds them permanently.
  if (network_.tree_index_of(node) == 0 && network_.pop_of(node) == origin_pop) return;

  eviction_scratch_.clear();
  const bool admitted = cache->insert(object, size, eviction_scratch_);
  if (!holders_) return;
  for (const cache::ObjectId evicted : eviction_scratch_) {
    holders_->remove(evicted, node);
  }
  if (admitted) holders_->add(object, node);
}

std::optional<Simulator::ServeDecision> Simulator::try_local(
    const BoundRequest& request, GlobalNodeId leaf_node) {
  // 1. The arrival leaf itself.
  cache::Cache* own = caches_[leaf_node].get();
  if (own != nullptr && has_serving_capacity(leaf_node) && own->lookup(request.object)) {
    return ServeDecision{leaf_node, false, false};
  }

  // 2. Scoped sibling cooperation (EDGE-Coop and friends, §4.1).
  const TreeIndex t = network_.tree_index_of(leaf_node);
  if (design_.sibling_cooperation && t != 0) {
    const topology::AccessTreeShape& tree = network_.tree();
    const PopId pop = network_.pop_of(leaf_node);
    const TreeIndex first = tree.first_child(tree.parent(t));
    for (TreeIndex sib = first; sib < first + tree.arity(); ++sib) {
      if (sib == t) continue;
      const GlobalNodeId sib_node = network_.global_node(pop, sib);
      cache::Cache* cache = caches_[sib_node].get();
      if (cache != nullptr && has_serving_capacity(sib_node) &&
          cache->lookup(request.object)) {
        return ServeDecision{sib_node, false, true};
      }
    }
  }
  return std::nullopt;
}

Simulator::ServeDecision Simulator::decide_shortest_path(const BoundRequest& request,
                                                         GlobalNodeId leaf_node,
                                                         GlobalNodeId origin_node) {
  // Climb the access tree (above the leaf), then cross the core toward the
  // origin; serve from the first cache holding the object.
  const PopId pop = network_.pop_of(leaf_node);
  const PopId origin_pop = network_.pop_of(origin_node);

  const auto try_serve = [&](GlobalNodeId node) -> bool {
    if (node == origin_node) return false;  // the origin is handled below
    cache::Cache* cache = caches_[node].get();
    if (cache == nullptr) return false;
    if (has_serving_capacity(node)) return cache->lookup(request.object);
    // An overloaded cache that holds the object passes the request on.
    if (cache->contains(request.object)) ++metrics_.capacity_redirects;
    return false;
  };

  TreeIndex t = network_.tree_index_of(leaf_node);
  while (t != 0) {
    t = network_.tree().parent(t);
    const GlobalNodeId node = network_.global_node(pop, t);
    if (try_serve(node)) return ServeDecision{node, false, false};
  }
  network_.core_paths().path(pop, origin_pop, path_scratch_);  // pop ids here
  for (std::size_t i = 1; i < path_scratch_.size(); ++i) {
    const GlobalNodeId node = network_.pop_root(path_scratch_[i]);
    if (try_serve(node)) return ServeDecision{node, false, false};
  }
  return ServeDecision{origin_node, true, false};
}

Simulator::ServeDecision Simulator::decide_nearest_replica(const BoundRequest& request,
                                                           GlobalNodeId leaf_node,
                                                           GlobalNodeId origin_node,
                                                           double origin_cost) {
  if (!config_.serving_capacity) {
    const auto best = holders_->nearest(request.object, leaf_node, origin_cost);
    if (best && best->cost <= origin_cost) {
      (void)caches_[best->node]->lookup(request.object);
      return ServeDecision{best->node, false, false};
    }
    return ServeDecision{origin_node, true, false};
  }

  // Capacity-limited: stream replicas by increasing cost (the walk prunes
  // whole PoPs past the origin cost and stops at the bound, instead of
  // materializing and sorting every holder); an overloaded cache passes the
  // request on; the origin absorbs the overflow.
  metrics_.perf.bump(&PerfCounters::sorts_avoided);
  HolderIndex::Walk candidates =
      holders_->walk(request.object, leaf_node, origin_cost);
  while (const auto candidate = candidates.next()) {
    if (!has_serving_capacity(candidate->node)) {
      ++metrics_.capacity_redirects;
      continue;
    }
    (void)caches_[candidate->node]->lookup(request.object);
    return ServeDecision{candidate->node, false, false};
  }
  return ServeDecision{origin_node, true, false};
}

void Simulator::prefill(const BoundWorkload& workload) {
  // Per-object sizes: first occurrence in the workload wins; objects never
  // requested default to 1 unit (they sort to the end of any real
  // popularity order anyway). Every image shares them.
  std::vector<std::uint64_t> size_of(workload.object_count, 1);
  std::vector<bool> size_known(workload.object_count, false);
  for (const BoundRequest& r : workload.requests) {
    if (!size_known[r.object]) {
      size_known[r.object] = true;
      size_of[r.object] = r.size;
    }
  }
  const auto sizes = std::make_shared<const std::vector<std::uint64_t>>(std::move(size_of));
  // One image per distinct popularity order, built when the first cache
  // that follows the order fills.
  std::vector<std::shared_ptr<const cache::PopularityImage>> images(
      workload.popularity_order.size());

  // Each cache takes the greedy prefix of its PoP's popularity order that
  // fits its capacity. A non-root cache stores all of it, so caches that
  // share the order and the capacity end identical: they form a group,
  // whose first cache warms from the order's image (Cache::warm_start) and
  // is copied to the others. The prefix always fits, so no fill evicts or
  // draws from a policy's RNG, and each copy holds exactly what its own
  // warm start would have built. A PoP root fills alone, by inserts, since
  // it skips the objects its PoP originates.
  struct Group {
    const std::vector<std::uint32_t>* order;
    std::uint64_t capacity;
    const cache::Cache* source;  ///< the member that warm-started
    std::size_t prefix;          ///< its objects: (*order)[0, prefix)
  };
  std::vector<Group> groups;
  // This PoP's group members as (group, tree index), for the holder index.
  std::vector<std::pair<std::size_t, TreeIndex>> members;
  std::vector<TreeIndex> group_nodes;

  const TreeIndex tree_nodes = network_.tree().node_count();
  for (PopId pop = 0; pop < network_.pop_count(); ++pop) {
    const std::vector<std::uint32_t>& order = workload.order_for_pop(pop);
    std::shared_ptr<const cache::PopularityImage>& image =
        images[static_cast<std::size_t>(&order - workload.popularity_order.data())];
    members.clear();
    for (TreeIndex t = 0; t < tree_nodes; ++t) {
      const GlobalNodeId n = network_.global_node(pop, t);
      cache::Cache* cache = caches_[n].get();
      if (cache == nullptr) continue;
      const std::uint64_t capacity = cache->capacity_units();

      if (t != 0) {
        // Search from the back: this PoP's own group is usually the last.
        const auto match =
            std::find_if(groups.rbegin(), groups.rend(), [&](const Group& group) {
              return group.order == &order && group.capacity == capacity;
            });
        if (match != groups.rend()) {
          const auto g = static_cast<std::size_t>(groups.rend() - match) - 1;
          cache->copy_from(*groups[g].source);
          members.emplace_back(g, t);
          continue;
        }
      }
      if (image == nullptr) {
        image = std::make_shared<const cache::PopularityImage>(order, sizes);
      }
      const std::size_t prefix = image->fitting_prefix(capacity);
      if (t == 0) {
        cache->presize(prefix);
        // Insert least-popular first so the most popular object is MRU.
        for (std::size_t i = prefix; i-- > 0;) {
          const std::uint32_t object = order[i];
          store_on_path(object, image->size_of(object), n, origins_.origin_pop(object));
        }
        continue;
      }
      cache->warm_start(image, prefix);
      groups.push_back(Group{&order, capacity, cache, prefix});
      members.emplace_back(groups.size() - 1, t);
    }
    if (!holders_) continue;

    // One holder record update per (object, group) of this PoP, instead of
    // one add per (object, node).
    std::sort(members.begin(), members.end());
    for (std::size_t begin = 0, end = 0; begin < members.size(); begin = end) {
      group_nodes.clear();
      const std::size_t g = members[begin].first;
      for (end = begin; end < members.size() && members[end].first == g; ++end) {
        group_nodes.push_back(members[end].second);
      }
      for (std::size_t i = 0; i < groups[g].prefix; ++i) {
        holders_->add_group((*groups[g].order)[i], pop, group_nodes);
      }
    }
  }
}

void Simulator::apply_cache_decision(const std::vector<GlobalNodeId>& response,
                                     std::uint32_t object, std::uint64_t size,
                                     PopId origin_pop) {
  // response[0] is the serving node; response.back() is the request leaf.
  switch (design_.cache_decision) {
    case CacheDecision::LeaveCopyEverywhere:
      for (const GlobalNodeId node : response) {
        store_on_path(object, size, node, origin_pop);
      }
      return;
    case CacheDecision::LeaveCopyDown:
      // The copy advances one node toward the client per fetch (and the
      // serving node refreshes its own policy state).
      store_on_path(object, size, response[0], origin_pop);
      if (response.size() > 1) store_on_path(object, size, response[1], origin_pop);
      return;
    case CacheDecision::Probabilistic: {
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      store_on_path(object, size, response[0], origin_pop);  // refresh at server
      for (std::size_t i = 1; i + 1 < response.size(); ++i) {
        if (coin(decision_rng_) < design_.cache_probability) {
          store_on_path(object, size, response[i], origin_pop);
        }
      }
      // The requesting leaf always stores (it asked for the object).
      if (response.size() > 1) {
        store_on_path(object, size, response.back(), origin_pop);
      }
      return;
    }
  }
}

SimulationMetrics Simulator::run(const BoundWorkload& workload) {
  metrics_ = SimulationMetrics{};
  metrics_.design_name = design_.name;
  link_transfers_.assign(network_.link_count(), 0);
  link_bytes_.assign(network_.link_count(), 0.0);
  metrics_.origin_served.assign(network_.pop_count(), 0);
  metrics_.served_per_level.assign(network_.tree().depth() + 1, 0);
  metrics_.pop_latency.assign(network_.pop_count(), 0.0);
  metrics_.pop_requests.assign(network_.pop_count(), 0);

  if (holders_) holders_->reset_perf();
  if (config_.prefill) prefill(workload);
  const auto warmup_count = static_cast<std::size_t>(
      config_.warmup_fraction * static_cast<double>(workload.requests.size()));

  for (std::size_t request_index = 0; request_index < workload.requests.size();
       ++request_index) {
    const BoundRequest& request = workload.requests[request_index];
    const bool record = request_index >= warmup_count;
    if (config_.serving_capacity &&
        window_cursor_++ % config_.capacity_window == 0) {
      std::fill(served_in_window_.begin(), served_in_window_.end(), 0u);
    }

    const GlobalNodeId leaf_node = network_.leaf(request.pop, request.leaf);
    const PopId origin_pop = origins_.origin_pop(request.object);
    const GlobalNodeId origin_node = network_.pop_root(origin_pop);

    ServeDecision decision{};
    if (auto local = try_local(request, leaf_node)) {
      decision = *local;
    } else if (design_.routing == Routing::NearestReplica) {
      decision = decide_nearest_replica(request, leaf_node, origin_node,
                                        origin_cost(request.pop, origin_pop));
    } else if (design_.routing == Routing::ScopedNearestReplica) {
      // §3's intermediate strategy: use the nearest replica only when it is
      // within the scope radius (and no farther than the origin itself);
      // otherwise fall back to the shortest path. An unbounded radius is
      // exactly nearest-replica routing.
      const double to_origin = origin_cost(request.pop, origin_pop);
      const auto best = holders_->nearest(request.object, leaf_node,
                                          std::min(design_.scoped_radius, to_origin));
      if (best && best->cost <= design_.scoped_radius && best->cost <= to_origin &&
          (!config_.serving_capacity || has_serving_capacity(best->node))) {
        (void)caches_[best->node]->lookup(request.object);
        decision = ServeDecision{best->node, false, false};
      } else {
        decision = decide_shortest_path(request, leaf_node, origin_node);
      }
    } else {
      decision = decide_shortest_path(request, leaf_node, origin_node);
    }

    // --- accounting ---------------------------------------------------
    note_served(decision.node);
    if (record) {
      const double latency = network_.distance(leaf_node, decision.node);
      ++metrics_.request_count;
      metrics_.total_latency += latency;
      metrics_.total_hops += network_.hop_count(leaf_node, decision.node);
      metrics_.pop_latency[request.pop] += latency;
      ++metrics_.pop_requests[request.pop];

      if (decision.from_origin) {
        ++metrics_.origin_served[origin_pop];
        ++metrics_.total_origin_served;
      } else {
        ++metrics_.cache_hits;
        ++metrics_.served_per_level[network_.level_of(decision.node)];
        if (decision.node == leaf_node) ++metrics_.own_leaf_hits;
        if (decision.via_sibling) ++metrics_.sibling_hits;
      }
    }

    // --- response transfer and on-path caching -------------------------
    if (decision.node != leaf_node) {
      std::vector<GlobalNodeId>& response = path_scratch_;
      network_.path(decision.node, leaf_node, response);
      if (record) {
        for (std::size_t i = 0; i + 1 < response.size(); ++i) {
          const topology::GlobalLinkId link =
              network_.link_between(response[i], response[i + 1]);
          ++link_transfers_[link];
          link_bytes_[link] += static_cast<double>(request.size);
        }
      }
      apply_cache_decision(response, request.object, request.size, origin_pop);
    }

    if (request_observer_) request_observer_(request_index);
  }

  if (holders_) metrics_.perf.merge(holders_->perf());
  for (const std::uint64_t transfers : link_transfers_) {
    metrics_.max_link_transfers = std::max(metrics_.max_link_transfers, transfers);
  }
  for (const double bytes : link_bytes_) {
    metrics_.max_link_bytes = std::max(metrics_.max_link_bytes, bytes);
  }
  for (const std::uint64_t served : metrics_.origin_served) {
    metrics_.max_origin_served = std::max(metrics_.max_origin_served, served);
  }
  return metrics_;
}

SimulationMetrics run_design(const topology::HierarchicalNetwork& network,
                             const OriginMap& origins, const DesignSpec& design,
                             const SimulationConfig& config,
                             const BoundWorkload& workload) {
  Simulator simulator(network, origins, design, config);
  return simulator.run(workload);
}

Improvements compute_improvements(const SimulationMetrics& baseline,
                                  const SimulationMetrics& design) {
  const auto pct = [](double base, double value) {
    return base == 0.0 ? 0.0 : 100.0 * (base - value) / base;
  };
  Improvements imp;
  imp.latency_pct = pct(baseline.mean_latency(), design.mean_latency());
  imp.congestion_pct = pct(static_cast<double>(baseline.max_link_transfers),
                           static_cast<double>(design.max_link_transfers));
  imp.origin_load_pct = pct(static_cast<double>(baseline.max_origin_served),
                            static_cast<double>(design.max_origin_served));
  return imp;
}

}  // namespace idicn::core
