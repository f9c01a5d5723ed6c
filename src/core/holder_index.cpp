#include "core/holder_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace idicn::core {

using topology::GlobalNodeId;
using topology::PopId;
using topology::TreeIndex;

HolderIndex::HolderIndex(const topology::HierarchicalNetwork& network)
    : network_(&network),
      words_((network.tree().node_count() + kWordBits - 1) / kWordBits),
      stride_(1 + words_) {}

std::size_t HolderIndex::find_record(const std::vector<Word>& records,
                                     PopId pop) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = records.size() / stride_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (records[mid * stride_] < pop) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo * stride_;
}

TreeIndex HolderIndex::next_holder(const Word* mask, TreeIndex from) const noexcept {
  // Bits at T and above are never set, so W·64 >= T means "none".
  const auto none = static_cast<TreeIndex>(words_ * kWordBits);
  std::size_t w = from / kWordBits;
  if (w >= words_) return none;
  Word bits = mask[w] & (~Word{0} << (from % kWordBits));
  while (bits == 0) {
    if (++w == words_) return none;
    bits = mask[w];
  }
  return static_cast<TreeIndex>(w * kWordBits + std::countr_zero(bits));
}

void HolderIndex::add(std::uint32_t object, GlobalNodeId node) {
  const PopId pop = network_->pop_of(node);
  const TreeIndex t = network_->tree_index_of(node);
  std::vector<Word>& records = holders_[object];
  const std::size_t at = find_record(records, pop);
  if (at == records.size() || records[at] != pop) {
    records.insert(records.begin() + static_cast<std::ptrdiff_t>(at), stride_, 0);
    records[at] = pop;
  }
  Word& word = records[at + 1 + t / kWordBits];
  const Word bit = Word{1} << (t % kWordBits);
  // Only a record that existed before this call can have the bit set.
  if ((word & bit) != 0) throw std::logic_error("HolderIndex::add: duplicate holder");
  word |= bit;
  ++size_;
}

void HolderIndex::add_group(std::uint32_t object, PopId pop,
                            std::span<const TreeIndex> tree_nodes) {
  if (tree_nodes.empty()) return;
  if (pop >= network_->pop_count()) {
    throw std::logic_error("HolderIndex::add_group: no such PoP");
  }
  // Build the set's mask first, so every check runs before the index changes.
  group_mask_.assign(words_, 0);
  const TreeIndex tree_size = network_->tree().node_count();
  for (const TreeIndex t : tree_nodes) {
    if (t >= tree_size) throw std::logic_error("HolderIndex::add_group: not a tree node");
    Word& word = group_mask_[t / kWordBits];
    const Word bit = Word{1} << (t % kWordBits);
    if ((word & bit) != 0) {
      throw std::logic_error("HolderIndex::add_group: node listed twice");
    }
    word |= bit;
  }
  std::vector<Word>& records = holders_[object];
  const std::size_t at = find_record(records, pop);
  if (at == records.size() || records[at] != pop) {
    records.insert(records.begin() + static_cast<std::ptrdiff_t>(at), stride_, 0);
    records[at] = pop;
  } else {
    // Only a record that existed before this call can overlap the set.
    for (std::size_t w = 0; w < words_; ++w) {
      if ((records[at + 1 + w] & group_mask_[w]) != 0) {
        throw std::logic_error("HolderIndex::add_group: duplicate holder");
      }
    }
  }
  for (std::size_t w = 0; w < words_; ++w) records[at + 1 + w] |= group_mask_[w];
  size_ += tree_nodes.size();
}

void HolderIndex::remove(std::uint32_t object, GlobalNodeId node) {
  const auto not_held = [] {
    return std::logic_error("HolderIndex::remove: node was not a holder");
  };
  const auto it = holders_.find(object);
  if (it == holders_.end()) throw not_held();
  const PopId pop = network_->pop_of(node);
  const TreeIndex t = network_->tree_index_of(node);
  std::vector<Word>& records = it->second;
  const std::size_t at = find_record(records, pop);
  if (at == records.size() || records[at] != pop) throw not_held();
  Word& word = records[at + 1 + t / kWordBits];
  const Word bit = Word{1} << (t % kWordBits);
  if ((word & bit) == 0) throw not_held();

  word &= ~bit;
  const auto record = records.begin() + static_cast<std::ptrdiff_t>(at);
  const auto record_end = record + static_cast<std::ptrdiff_t>(stride_);
  if (std::all_of(record + 1, record_end, [](Word w) { return w == 0; })) {
    records.erase(record, record_end);
    if (records.empty()) holders_.erase(it);
  }
  --size_;
}

bool HolderIndex::holds(std::uint32_t object, GlobalNodeId node) const {
  const auto it = holders_.find(object);
  if (it == holders_.end()) return false;
  const PopId pop = network_->pop_of(node);
  const TreeIndex t = network_->tree_index_of(node);
  const std::vector<Word>& records = it->second;
  const std::size_t at = find_record(records, pop);
  return at != records.size() && records[at] == pop &&
         ((records[at + 1 + t / kWordBits] >> (t % kWordBits)) & 1) != 0;
}

std::optional<HolderIndex::Candidate> HolderIndex::nearest(std::uint32_t object,
                                                           GlobalNodeId leaf,
                                                           double max_cost) const {
  perf_.bump(&PerfCounters::nearest_queries);
  const auto it = holders_.find(object);
  if (it == holders_.end()) return std::nullopt;

  const PopId own_pop = network_->pop_of(leaf);
  const double leaf_up = network_->root_to_level_cost(network_->level_of(leaf));
  const TreeIndex tree_nodes = network_->tree().node_count();

  bool found = false;
  Candidate best{};
  const auto consider = [&](GlobalNodeId node, double cost) {
    if (!found || cost < best.cost || (cost == best.cost && node < best.node)) {
      best = Candidate{node, cost};
      found = true;
    }
  };

  const std::vector<Word>& records = it->second;
  for (std::size_t at = 0; at < records.size(); at += stride_) {
    const auto pop = static_cast<PopId>(records[at]);
    const Word* mask = records.data() + at + 1;
    if (pop == own_pop) {
      // Exact tree distance to every holder in the local tree.
      perf_.bump(&PerfCounters::pops_scanned);
      for (TreeIndex t = next_holder(mask, 0); t < tree_nodes;
           t = next_holder(mask, t + 1)) {
        perf_.bump(&PerfCounters::candidates_visited);
        const GlobalNodeId node = network_->global_node(pop, t);
        consider(node, network_->distance(leaf, node));
      }
    } else {
      // Crossing the core costs leaf_up + core + descent; descent cost is
      // monotone in level and tree indices are level-ordered, so the lowest
      // set bit dominates every other holder in this PoP (strictly cheaper,
      // or equal-cost with a lower node id).
      const double base = leaf_up + network_->core_cost(own_pop, pop);
      if (base > max_cost || (found && base > best.cost)) {
        perf_.bump(&PerfCounters::pops_pruned);
        continue;
      }
      perf_.bump(&PerfCounters::pops_scanned);
      perf_.bump(&PerfCounters::candidates_visited);
      const TreeIndex t = next_holder(mask, 0);
      consider(network_->global_node(pop, t),
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
  const TreeIndex tree_nodes = network_->tree().node_count();

  const std::vector<Word>& records = it->second;
  for (std::size_t at = 0; at < records.size(); at += stride_) {
    const auto pop = static_cast<PopId>(records[at]);
    const Word* mask = records.data() + at + 1;
    if (pop == own_pop) {
      // Own-PoP costs are exact tree distances (not level-monotone), so
      // this one small set of holders is materialized and sorted up front.
      for (TreeIndex t = next_holder(mask, 0); t < tree_nodes;
           t = next_holder(mask, t + 1)) {
        const GlobalNodeId node = network_->global_node(pop, t);
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
      const double base = leaf_up + network_->core_cost(own_pop, pop);
      const TreeIndex t0 = next_holder(mask, 0);
      const double cost0 =
          base + network_->root_to_level_cost(network_->tree().level_of(t0));
      if (cost0 > max_cost) {
        // The cheapest holder of this PoP is already out of reach.
        perf_.bump(&PerfCounters::pops_pruned);
        walk_cut_ = true;
        continue;
      }
      perf_.bump(&PerfCounters::pops_scanned);
      lanes_.push_back(Lane{mask, base, t0, network_->global_node(pop, 0)});
      heap_push(cost0, network_->global_node(pop, t0),
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
    lane.holder = next_holder(lane.mask, lane.holder + 1);
    if (lane.holder < network_->tree().node_count()) {
      const double cost = lane.base + network_->root_to_level_cost(
                                          network_->tree().level_of(lane.holder));
      if (cost <= walk_max_cost_) {
        heap_push(cost, lane.node_base + lane.holder, top.lane);
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
