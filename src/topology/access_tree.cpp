#include "topology/access_tree.hpp"

#include <algorithm>

namespace idicn::topology {

AccessTreeShape::AccessTreeShape(unsigned arity, unsigned depth)
    : arity_(arity), depth_(depth) {
  if (arity < 1) throw std::invalid_argument("AccessTreeShape: arity must be >= 1");
  level_start_.resize(depth + 2);
  TreeIndex start = 0;
  TreeIndex width = 1;
  for (unsigned level = 0; level <= depth; ++level) {
    level_start_[level] = start;
    start += width;
    // Guard against overflow for absurd shapes.
    if (width > (1u << 26)) throw std::invalid_argument("AccessTreeShape: tree too large");
    width *= arity;
  }
  level_start_[depth + 1] = start;
  node_count_ = start;
  leaf_count_ = node_count_ - level_start_[depth];
}

AccessTreeShape AccessTreeShape::with_leaf_count(unsigned arity, unsigned leaves) {
  unsigned depth = 0;
  std::uint64_t width = 1;
  while (width < leaves) {
    width *= arity;
    ++depth;
  }
  if (width != leaves) {
    throw std::invalid_argument(
        "AccessTreeShape::with_leaf_count: leaves must be a power of arity");
  }
  return AccessTreeShape(arity, depth);
}

unsigned AccessTreeShape::level_of(TreeIndex node) const {
  if (node >= node_count_) throw std::out_of_range("AccessTreeShape::level_of");
  // depth_ is tiny (<= ~26); linear scan beats binary search in practice.
  for (unsigned level = 0; level <= depth_; ++level) {
    if (node < level_start_[level + 1]) return level;
  }
  return depth_;  // unreachable
}

TreeIndex AccessTreeShape::leaf(TreeIndex j) const {
  if (j >= leaf_count_) throw std::out_of_range("AccessTreeShape::leaf");
  return level_start_[depth_] + j;
}

TreeIndex AccessTreeShape::parent(TreeIndex node) const {
  if (node == 0) throw std::invalid_argument("AccessTreeShape::parent of root");
  if (node >= node_count_) throw std::out_of_range("AccessTreeShape::parent");
  return (node - 1) / arity_;
}

TreeIndex AccessTreeShape::first_child(TreeIndex node) const {
  if (is_leaf(node)) throw std::invalid_argument("AccessTreeShape::first_child of leaf");
  return node * arity_ + 1;
}

TreeIndex AccessTreeShape::lowest_common_ancestor(TreeIndex a, TreeIndex b) const {
  unsigned la = level_of(a);
  unsigned lb = level_of(b);
  while (la > lb) {
    a = parent(a);
    --la;
  }
  while (lb > la) {
    b = parent(b);
    --lb;
  }
  while (a != b) {
    a = parent(a);
    b = parent(b);
  }
  return a;
}

unsigned AccessTreeShape::hop_distance(TreeIndex a, TreeIndex b) const {
  const TreeIndex lca = lowest_common_ancestor(a, b);
  return (level_of(a) - level_of(lca)) + (level_of(b) - level_of(lca));
}

std::vector<TreeIndex> AccessTreeShape::path_to_root(TreeIndex node) const {
  std::vector<TreeIndex> out;
  out.reserve(depth_ + 1);
  out.push_back(node);
  while (node != 0) {
    node = parent(node);
    out.push_back(node);
  }
  return out;
}

std::vector<TreeIndex> AccessTreeShape::path(TreeIndex a, TreeIndex b) const {
  const TreeIndex lca = lowest_common_ancestor(a, b);
  std::vector<TreeIndex> up;
  TreeIndex cursor = a;
  while (cursor != lca) {
    up.push_back(cursor);
    cursor = parent(cursor);
  }
  up.push_back(lca);

  std::vector<TreeIndex> down;
  cursor = b;
  while (cursor != lca) {
    down.push_back(cursor);
    cursor = parent(cursor);
  }
  std::reverse(down.begin(), down.end());
  up.insert(up.end(), down.begin(), down.end());
  return up;
}

}  // namespace idicn::topology
