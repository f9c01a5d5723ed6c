// Access-tree shape tests: index arithmetic, LCA, distances, and paths,
// parameterized over the (arity, depth) combinations the paper sweeps.
#include <gtest/gtest.h>

#include "topology/access_tree.hpp"

namespace {

using namespace idicn::topology;

TEST(AccessTree, BaselineShapeCounts) {
  // §4.1 baseline: binary, depth 5 → 63 nodes, 32 leaves.
  const AccessTreeShape shape(2, 5);
  EXPECT_EQ(shape.node_count(), 63u);
  EXPECT_EQ(shape.leaf_count(), 32u);
  EXPECT_EQ(shape.level_start(0), 0u);
  EXPECT_EQ(shape.level_start(5), 31u);
}

TEST(AccessTree, DepthZeroIsSingleNode) {
  const AccessTreeShape shape(4, 0);
  EXPECT_EQ(shape.node_count(), 1u);
  EXPECT_EQ(shape.leaf_count(), 1u);
  EXPECT_TRUE(shape.is_leaf(0));
  EXPECT_EQ(shape.level_of(0), 0u);
}

TEST(AccessTree, ParentChildRelations) {
  const AccessTreeShape shape(2, 3);
  EXPECT_EQ(shape.parent(1), 0u);
  EXPECT_EQ(shape.parent(2), 0u);
  EXPECT_EQ(shape.first_child(0), 1u);
  EXPECT_EQ(shape.first_child(1), 3u);
  EXPECT_THROW((void)shape.parent(0), std::invalid_argument);
  EXPECT_THROW((void)shape.first_child(shape.leaf(0)), std::invalid_argument);
}

TEST(AccessTree, LcaAndDistance) {
  const AccessTreeShape shape(2, 3);
  // Leaves are indices 7..14. 7 and 8 share parent 3.
  EXPECT_EQ(shape.lowest_common_ancestor(7, 8), 3u);
  EXPECT_EQ(shape.hop_distance(7, 8), 2u);
  // 7 and 14 only share the root.
  EXPECT_EQ(shape.lowest_common_ancestor(7, 14), 0u);
  EXPECT_EQ(shape.hop_distance(7, 14), 6u);
  // Node to itself.
  EXPECT_EQ(shape.hop_distance(5, 5), 0u);
  // Ancestor relation.
  EXPECT_EQ(shape.hop_distance(7, 1), 2u);
}

TEST(AccessTree, PathEndpointsAndAdjacency) {
  const AccessTreeShape shape(3, 3);
  const std::vector<TreeIndex> path = shape.path(shape.leaf(0), shape.leaf(20));
  EXPECT_EQ(path.front(), shape.leaf(0));
  EXPECT_EQ(path.back(), shape.leaf(20));
  EXPECT_EQ(path.size() - 1, shape.hop_distance(shape.leaf(0), shape.leaf(20)));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const TreeIndex a = path[i];
    const TreeIndex b = path[i + 1];
    EXPECT_TRUE((a != 0 && shape.parent(a) == b) || (b != 0 && shape.parent(b) == a));
  }
}

TEST(AccessTree, PathToRoot) {
  const AccessTreeShape shape(2, 3);
  const std::vector<TreeIndex> path = shape.path_to_root(shape.leaf(5));
  EXPECT_EQ(path.size(), 4u);
  EXPECT_EQ(path.back(), 0u);
  EXPECT_EQ(path.front(), shape.leaf(5));
}

TEST(AccessTree, WithLeafCount) {
  // The Table-4 sweep: fixed 64 leaves across arities.
  EXPECT_EQ(AccessTreeShape::with_leaf_count(2, 64).depth(), 6u);
  EXPECT_EQ(AccessTreeShape::with_leaf_count(4, 64).depth(), 3u);
  EXPECT_EQ(AccessTreeShape::with_leaf_count(8, 64).depth(), 2u);
  EXPECT_EQ(AccessTreeShape::with_leaf_count(64, 64).depth(), 1u);
  EXPECT_THROW(AccessTreeShape::with_leaf_count(4, 63), std::invalid_argument);
}

TEST(AccessTree, OutOfRangeChecks) {
  const AccessTreeShape shape(2, 2);
  EXPECT_THROW((void)shape.level_of(7), std::out_of_range);
  EXPECT_THROW((void)shape.leaf(4), std::out_of_range);
  EXPECT_THROW((void)shape.parent(7), std::out_of_range);
}

struct ShapeParam {
  unsigned arity;
  unsigned depth;
};

class ShapeSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ShapeSweep, StructuralInvariants) {
  const auto [arity, depth] = GetParam();
  const AccessTreeShape shape(arity, depth);

  // Node count == sum of level widths; leaves are exactly the last level.
  TreeIndex expected = 0, width = 1;
  for (unsigned level = 0; level <= depth; ++level) {
    EXPECT_EQ(shape.level_start(level), expected);
    expected += width;
    width *= arity;
  }
  EXPECT_EQ(shape.node_count(), expected);

  for (TreeIndex node = 0; node < shape.node_count(); ++node) {
    const unsigned level = shape.level_of(node);
    EXPECT_EQ(shape.is_leaf(node), level == depth);
    if (node != 0) {
      // Parent is exactly one level up and children map back.
      const TreeIndex p = shape.parent(node);
      EXPECT_EQ(shape.level_of(p), level - 1);
      EXPECT_GE(node, shape.first_child(p));
      EXPECT_LT(node, shape.first_child(p) + arity);
    }
  }
  for (TreeIndex j = 0; j < shape.leaf_count(); ++j) {
    EXPECT_TRUE(shape.is_leaf(shape.leaf(j)));
  }
}

TEST_P(ShapeSweep, DistanceIsAMetric) {
  const auto [arity, depth] = GetParam();
  const AccessTreeShape shape(arity, depth);
  const TreeIndex n = std::min<TreeIndex>(shape.node_count(), 20);
  for (TreeIndex a = 0; a < n; ++a) {
    for (TreeIndex b = 0; b < n; ++b) {
      EXPECT_EQ(shape.hop_distance(a, b), shape.hop_distance(b, a));
      EXPECT_EQ(shape.hop_distance(a, b) == 0, a == b);
      for (TreeIndex c = 0; c < n; ++c) {
        EXPECT_LE(shape.hop_distance(a, b),
                  shape.hop_distance(a, c) + shape.hop_distance(c, b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweep,
                         ::testing::Values(ShapeParam{2, 1}, ShapeParam{2, 5},
                                           ShapeParam{3, 3}, ShapeParam{4, 3},
                                           ShapeParam{8, 2}, ShapeParam{64, 1}));

}  // namespace
