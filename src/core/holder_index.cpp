#include "core/holder_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace idicn::core {

using topology::GlobalNodeId;
using topology::PopId;
using topology::TreeIndex;

void HolderIndex::add(std::uint32_t object, GlobalNodeId node) {
  const PopId pop = network_->pop_of(node);
  const TreeIndex t = network_->tree_index_of(node);
  std::vector<PopHolders>& pops = holders_[object].pops;

  const auto pop_it = std::lower_bound(pops.begin(), pops.end(), pop, &pop_before);
  if (pop_it == pops.end() || pop_it->pop != pop) {
    pops.insert(pop_it, PopHolders{pop, {t}});
  } else {
    std::vector<TreeIndex>& nodes = pop_it->nodes;
    const auto at = std::lower_bound(nodes.begin(), nodes.end(), t);
    if (at != nodes.end() && *at == t) {
      throw std::logic_error("HolderIndex::add: duplicate holder");
    }
    nodes.insert(at, t);
  }
  ++size_;
}

void HolderIndex::remove(std::uint32_t object, GlobalNodeId node) {
  const auto not_held = [] {
    return std::logic_error("HolderIndex::remove: node was not a holder");
  };
  const auto it = holders_.find(object);
  if (it == holders_.end()) throw not_held();
  const PopId pop = network_->pop_of(node);
  const TreeIndex t = network_->tree_index_of(node);
  std::vector<PopHolders>& pops = it->second.pops;
  const auto pop_it = std::lower_bound(pops.begin(), pops.end(), pop, &pop_before);
  if (pop_it == pops.end() || pop_it->pop != pop) throw not_held();
  std::vector<TreeIndex>& nodes = pop_it->nodes;
  const auto at = std::lower_bound(nodes.begin(), nodes.end(), t);
  if (at == nodes.end() || *at != t) throw not_held();

  nodes.erase(at);
  if (nodes.empty()) {
    pops.erase(pop_it);
    if (pops.empty()) holders_.erase(it);
  }
  --size_;
}

bool HolderIndex::holds(std::uint32_t object, GlobalNodeId node) const {
  const auto it = holders_.find(object);
  if (it == holders_.end()) return false;
  const PopId pop = network_->pop_of(node);
  const std::vector<PopHolders>& pops = it->second.pops;
  const auto pop_it = std::lower_bound(pops.begin(), pops.end(), pop, &pop_before);
  return pop_it != pops.end() && pop_it->pop == pop &&
         std::binary_search(pop_it->nodes.begin(), pop_it->nodes.end(),
                            network_->tree_index_of(node));
}

std::optional<HolderIndex::Candidate> HolderIndex::nearest(std::uint32_t object,
                                                           GlobalNodeId leaf,
                                                           double max_cost) const {
  perf_.bump(&PerfCounters::nearest_queries);
  const auto it = holders_.find(object);
  if (it == holders_.end()) return std::nullopt;

  const PopId own_pop = network_->pop_of(leaf);
  const double leaf_up = network_->root_to_level_cost(network_->level_of(leaf));

  bool found = false;
  Candidate best{};
  const auto consider = [&](GlobalNodeId node, double cost) {
    if (!found || cost < best.cost || (cost == best.cost && node < best.node)) {
      best = Candidate{node, cost};
      found = true;
    }
  };

  for (const PopHolders& ph : it->second.pops) {
    if (ph.pop == own_pop) {
      // Exact tree distance to every holder in the local tree.
      perf_.bump(&PerfCounters::pops_scanned);
      perf_.bump(&PerfCounters::candidates_visited, ph.nodes.size());
      for (const TreeIndex t : ph.nodes) {
        const GlobalNodeId node = network_->global_node(ph.pop, t);
        consider(node, network_->distance(leaf, node));
      }
    } else {
      // Crossing the core costs leaf_up + core + descent; descent cost is
      // monotone in level and the bucket is level-ordered, so the bucket's
      // first node dominates every other holder in this PoP (strictly
      // cheaper, or equal-cost with a lower node id).
      const double base = leaf_up + network_->core_cost(own_pop, ph.pop);
      if (base > max_cost || (found && base > best.cost)) {
        perf_.bump(&PerfCounters::pops_pruned);
        continue;
      }
      perf_.bump(&PerfCounters::pops_scanned);
      perf_.bump(&PerfCounters::candidates_visited);
      const TreeIndex t = ph.nodes.front();
      consider(network_->global_node(ph.pop, t),
               base + network_->root_to_level_cost(network_->tree().level_of(t)));
    }
  }
  if (!found) return std::nullopt;
  return best;
}

// Min-heap ordering on (cost, node): std::*_heap build a max-heap, so the
// comparator inverts the candidate order.
bool HolderIndex::heap_after(const HeapEntry& a, const HeapEntry& b) noexcept {
  return a.cost > b.cost || (a.cost == b.cost && a.node > b.node);
}

void HolderIndex::heap_push(double cost, GlobalNodeId node, std::uint32_t lane) const {
  heap_.push_back(HeapEntry{cost, node, lane});
  std::push_heap(heap_.begin(), heap_.end(), &HolderIndex::heap_after);
}

HolderIndex::Walk HolderIndex::walk(std::uint32_t object, GlobalNodeId leaf,
                                    double max_cost) const {
  perf_.bump(&PerfCounters::candidate_walks);
  lanes_.clear();
  heap_.clear();
  own_sorted_.clear();
  own_next_ = 0;
  walk_max_cost_ = max_cost;
  walk_cut_ = false;

  const auto it = holders_.find(object);
  if (it == holders_.end()) return Walk(this);

  const PopId own_pop = network_->pop_of(leaf);
  const double leaf_up = network_->root_to_level_cost(network_->level_of(leaf));

  for (const PopHolders& ph : it->second.pops) {
    if (ph.pop == own_pop) {
      // Own-PoP costs are exact tree distances (not level-monotone), so
      // this one small bucket is materialized and sorted up front.
      for (const TreeIndex t : ph.nodes) {
        const GlobalNodeId node = network_->global_node(ph.pop, t);
        own_sorted_.push_back(Candidate{node, network_->distance(leaf, node)});
      }
      std::sort(own_sorted_.begin(), own_sorted_.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.cost < b.cost || (a.cost == b.cost && a.node < b.node);
                });
      if (own_sorted_.front().cost <= max_cost) {
        perf_.bump(&PerfCounters::pops_scanned);
        heap_push(own_sorted_.front().cost, own_sorted_.front().node, kOwnLane);
      } else {
        perf_.bump(&PerfCounters::pops_pruned);
        walk_cut_ = true;
      }
    } else {
      const double base = leaf_up + network_->core_cost(own_pop, ph.pop);
      const TreeIndex t0 = ph.nodes.front();
      const double cost0 =
          base + network_->root_to_level_cost(network_->tree().level_of(t0));
      if (cost0 > max_cost) {
        // The cheapest holder of this PoP is already out of reach.
        perf_.bump(&PerfCounters::pops_pruned);
        walk_cut_ = true;
        continue;
      }
      perf_.bump(&PerfCounters::pops_scanned);
      lanes_.push_back(Lane{&ph.nodes, base, 0,
                            network_->global_node(ph.pop, 0)});
      heap_push(cost0, network_->global_node(ph.pop, t0),
                static_cast<std::uint32_t>(lanes_.size() - 1));
    }
  }
  return Walk(this);
}

std::optional<HolderIndex::Candidate> HolderIndex::walk_next() const {
  if (heap_.empty()) {
    if (walk_cut_) {
      perf_.bump(&PerfCounters::early_exits);
      walk_cut_ = false;  // count once per walk
    }
    return std::nullopt;
  }
  std::pop_heap(heap_.begin(), heap_.end(), &HolderIndex::heap_after);
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  perf_.bump(&PerfCounters::candidates_visited);

  // Advance the lane the served candidate came from.
  if (top.lane == kOwnLane) {
    if (++own_next_ < own_sorted_.size()) {
      const Candidate& c = own_sorted_[own_next_];
      if (c.cost <= walk_max_cost_) {
        heap_push(c.cost, c.node, kOwnLane);
      } else {
        walk_cut_ = true;
      }
    }
  } else {
    Lane& lane = lanes_[top.lane];
    if (++lane.next < lane.nodes->size()) {
      const TreeIndex t = (*lane.nodes)[lane.next];
      const double cost =
          lane.base + network_->root_to_level_cost(network_->tree().level_of(t));
      if (cost <= walk_max_cost_) {
        heap_push(cost, lane.node_base + t, top.lane);
      } else {
        walk_cut_ = true;
      }
    }
  }
  return Candidate{top.node, top.cost};
}

std::optional<HolderIndex::Candidate> HolderIndex::Walk::next() {
  return index_->walk_next();
}

std::vector<HolderIndex::Candidate> HolderIndex::candidates_by_cost(
    std::uint32_t object, GlobalNodeId leaf) const {
  std::vector<Candidate> out;
  Walk w = walk(object, leaf, kUnbounded);
  while (const auto c = w.next()) out.push_back(*c);
  return out;
}

}  // namespace idicn::core
