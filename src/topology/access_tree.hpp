// Complete k-ary access trees.
//
// Per §4.1 of the paper, each PoP of the core topology is the root of a
// complete k-ary access tree (baseline k=2, depth 5); requests enter at the
// leaves. Trees are complete and regular, so we never materialize them —
// all structure (parent/children, levels, distances, paths) is computed
// from indices in level order: root = 0, children of i = k·i+1 … k·i+k.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace idicn::topology {

using TreeIndex = std::uint32_t;

/// Shape of a complete k-ary tree of the given depth (root at level 0,
/// leaves at level `depth`; depth 0 is a single-node tree).
class AccessTreeShape {
public:
  AccessTreeShape(unsigned arity, unsigned depth);

  /// Construct the shape with `arity` whose leaf count equals `leaves`
  /// (used by the Table-4 arity sweep, which holds leaves fixed).
  /// Throws std::invalid_argument when `leaves` is not a power of `arity`.
  [[nodiscard]] static AccessTreeShape with_leaf_count(unsigned arity, unsigned leaves);

  [[nodiscard]] unsigned arity() const noexcept { return arity_; }
  [[nodiscard]] unsigned depth() const noexcept { return depth_; }

  [[nodiscard]] TreeIndex node_count() const noexcept { return node_count_; }
  [[nodiscard]] TreeIndex leaf_count() const noexcept { return leaf_count_; }

  /// First index of level `level` (levels are stored contiguously).
  [[nodiscard]] TreeIndex level_start(unsigned level) const { return level_start_.at(level); }

  /// Level of a node (0 = root).
  [[nodiscard]] unsigned level_of(TreeIndex node) const;

  [[nodiscard]] bool is_leaf(TreeIndex node) const { return node >= level_start_[depth_]; }

  /// The j-th leaf (j in [0, leaf_count())).
  [[nodiscard]] TreeIndex leaf(TreeIndex j) const;

  /// Parent of a non-root node. Throws std::invalid_argument for the root.
  [[nodiscard]] TreeIndex parent(TreeIndex node) const;

  /// First child of a non-leaf node; children are contiguous
  /// [first_child, first_child + arity).
  [[nodiscard]] TreeIndex first_child(TreeIndex node) const;

  /// Hop distance between two nodes of the same tree.
  [[nodiscard]] unsigned hop_distance(TreeIndex a, TreeIndex b) const;

  /// Lowest common ancestor.
  [[nodiscard]] TreeIndex lowest_common_ancestor(TreeIndex a, TreeIndex b) const;

  /// Node sequence from `node` up to (and including) the root.
  [[nodiscard]] std::vector<TreeIndex> path_to_root(TreeIndex node) const;

  /// Node sequence a → … → b through their LCA (inclusive of both ends).
  [[nodiscard]] std::vector<TreeIndex> path(TreeIndex a, TreeIndex b) const;

  bool operator==(const AccessTreeShape&) const = default;

private:
  unsigned arity_ = 2;
  unsigned depth_ = 5;
  TreeIndex node_count_ = 0;
  TreeIndex leaf_count_ = 0;
  std::vector<TreeIndex> level_start_;  // level_start_[depth_+1] == node_count_
};

}  // namespace idicn::topology
