// Tree placement optimizer tests (the §2.2 / Figure 2 analysis model):
// greedy vs closed-form optimum, brute-force cross-check, and the paper's
// qualitative level-profile claims.
#include <gtest/gtest.h>

#include "analysis/tree_model.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace idicn::analysis;
using idicn::topology::AccessTreeShape;

std::vector<double> zipf_probabilities(std::uint32_t n, double alpha) {
  const idicn::workload::ZipfDistribution zipf(n, alpha);
  std::vector<double> p(n);
  for (std::uint32_t i = 1; i <= n; ++i) p[i - 1] = zipf.probability(i);
  return p;
}

TEST(TreeModel, LevelFractionsSumToOne) {
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 3),
                                     zipf_probabilities(100, 0.9), 5);
  for (const TreePlacementResult& result :
       {optimizer.chunk_solution(), optimizer.solve_greedy()}) {
    double total = 0.0;
    for (const double f : result.level_fraction) total += f;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GE(result.expected_cost, 1.0);
    EXPECT_LE(result.expected_cost, static_cast<double>(optimizer.paper_levels()));
  }
}

TEST(TreeModel, GreedyMatchesChunkOptimumInSymmetricSetting) {
  // With identical leaf distributions, the closed-form chunk placement is
  // optimal; greedy must achieve the same expected cost.
  for (const double alpha : {0.7, 1.1, 1.5}) {
    const TreeCacheOptimizer optimizer(AccessTreeShape(2, 4),
                                       zipf_probabilities(400, alpha), 20);
    const TreePlacementResult chunk = optimizer.chunk_solution();
    const TreePlacementResult greedy = optimizer.solve_greedy();
    EXPECT_NEAR(greedy.expected_cost, chunk.expected_cost, 1e-6) << "alpha=" << alpha;
  }
}

TEST(TreeModel, ChunkPlacementHoldsNextRanksAtEachLevel) {
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 2),
                                     zipf_probabilities(20, 1.0), 3);
  const TreePlacementResult result = optimizer.chunk_solution();
  const AccessTreeShape shape(2, 2);
  // Leaves (level 2 of the shape) hold ranks 0..2; their parents 3..5.
  for (idicn::topology::TreeIndex leaf = shape.level_start(2);
       leaf < shape.node_count(); ++leaf) {
    EXPECT_EQ(result.placement[leaf], (std::vector<std::uint32_t>{0, 1, 2}));
  }
  for (idicn::topology::TreeIndex mid = shape.level_start(1);
       mid < shape.level_start(2); ++mid) {
    EXPECT_EQ(result.placement[mid], (std::vector<std::uint32_t>{3, 4, 5}));
  }
}

TEST(TreeModel, BruteForceConfirmsGreedyOnTinyInstance) {
  // 3-node binary tree (depth 1), 4 objects, capacity 1 per cache node.
  // Exhaustively enumerate all placements: each of the two leaves holds one
  // of the 4 objects (the root is the origin).
  const std::vector<double> p = zipf_probabilities(4, 1.0);
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 1), p, 1);

  double best = 1e9;
  for (std::uint32_t left = 0; left < 4; ++left) {
    for (std::uint32_t right = 0; right < 4; ++right) {
      std::vector<std::vector<std::uint32_t>> placement(3);
      placement[1] = {left};
      placement[2] = {right};
      best = std::min(best, optimizer.evaluate(std::move(placement)).expected_cost);
    }
  }
  EXPECT_NEAR(optimizer.solve_greedy().expected_cost, best, 1e-9);
}

TEST(TreeModel, BruteForceDepth2Capacity1) {
  // Depth-2 binary tree: caches at nodes 1..6 with capacity 1, 3 objects.
  const std::vector<double> p = zipf_probabilities(3, 0.8);
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 2), p, 1);

  double best = 1e9;
  // Enumerate object choice (0..2) for each of the 6 cache nodes: 3^6 = 729.
  for (int mask = 0; mask < 729; ++mask) {
    int m = mask;
    std::vector<std::vector<std::uint32_t>> placement(7);
    for (int node = 1; node <= 6; ++node) {
      placement[static_cast<std::size_t>(node)] = {static_cast<std::uint32_t>(m % 3)};
      m /= 3;
    }
    best = std::min(best, optimizer.evaluate(std::move(placement)).expected_cost);
  }
  EXPECT_NEAR(optimizer.solve_greedy().expected_cost, best, 1e-9);
}

TEST(TreeModel, Figure2Shape) {
  // The paper's Figure 2: 6-level binary tree, F = 5% caches. Two claims:
  // (a) the edge level and the origin dominate, the middle levels add
  // little; (b) higher alpha concentrates more mass at the edge.
  const unsigned depth = 5;  // 6 paper levels
  const std::uint32_t objects = 10000;
  const std::uint32_t capacity = 500;

  double previous_edge = 0.0;
  for (const double alpha : {0.7, 1.1, 1.5}) {
    const TreeCacheOptimizer optimizer(AccessTreeShape(2, depth),
                                       zipf_probabilities(objects, alpha), capacity);
    const TreePlacementResult result = optimizer.chunk_solution();
    const double edge = result.level_fraction[0];
    const double origin = result.level_fraction[depth];
    double middle = 0.0;
    for (unsigned level = 2; level <= depth; ++level) {
      middle += result.level_fraction[level - 1];
    }
    EXPECT_GT(edge, previous_edge) << "alpha=" << alpha;
    EXPECT_GT(edge + origin, middle) << "alpha=" << alpha;
    previous_edge = edge;
  }
}

TEST(TreeModel, GreedySkipsZeroGainPlacements) {
  // With one object of probability 1 and big caches, only the leaf
  // placements matter; ancestors gain nothing once all leaves hold it.
  const std::vector<double> p = {1.0};
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 2), p, 1);
  const TreePlacementResult result = optimizer.solve_greedy();
  EXPECT_NEAR(result.expected_cost, 1.0, 1e-12);
  // Interior nodes must be left empty (no positive marginal gain).
  EXPECT_TRUE(result.placement[1].empty());
  EXPECT_TRUE(result.placement[2].empty());
}

TEST(TreeModel, ChunkRequiresSortedProbabilities) {
  std::vector<double> p = {0.1, 0.5, 0.4};
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 1), p, 1);
  EXPECT_THROW((void)optimizer.chunk_solution(), std::logic_error);
  EXPECT_NO_THROW((void)optimizer.solve_greedy());  // greedy handles any order
}

TEST(TreeModel, InvalidInputsThrow) {
  EXPECT_THROW(TreeCacheOptimizer(AccessTreeShape(2, 1), {}, 1),
               std::invalid_argument);
  EXPECT_THROW(TreeCacheOptimizer(AccessTreeShape(2, 1), {-0.5, 1.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(TreeCacheOptimizer(AccessTreeShape(2, 1), {0.0, 0.0}, 1),
               std::invalid_argument);
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 1), {1.0}, 1);
  EXPECT_THROW((void)optimizer.evaluate({{}, {}}), std::invalid_argument);
}

// --- per-level budget allocation ----------------------------------------------

TEST(BudgetAllocation, SpendsWithinBudgetAndNormalizesShares) {
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 3),
                                     zipf_probabilities(200, 1.0), 10);
  const auto allocation = optimizer.optimize_level_budgets(100);
  // Budget actually spent: Σ capacity × nodes ≤ 100.
  const std::uint64_t nodes_per_level[3] = {8, 4, 2};  // paper levels 1..3
  std::uint64_t spent = 0;
  for (int l = 0; l < 3; ++l) {
    spent += allocation.per_level_capacity[static_cast<std::size_t>(l)] *
             nodes_per_level[l];
  }
  EXPECT_LE(spent, 100u);
  double share_total = 0.0;
  for (const double share : allocation.budget_share) share_total += share;
  EXPECT_NEAR(share_total, 1.0, 1e-9);
}

TEST(BudgetAllocation, MatchesBruteForceOnSmallInstance) {
  // Depth-2 binary tree: levels 1 (4 leaves), 2 (2 nodes). Budget 12 slots.
  const std::vector<double> p = zipf_probabilities(20, 1.0);
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 2), p, 1);
  const auto greedy = optimizer.optimize_level_budgets(12);

  double best = 1e18;
  for (std::uint32_t c1 = 0; c1 <= 12 / 4; ++c1) {
    for (std::uint32_t c2 = 0; c2 * 2 + c1 * 4 <= 12; ++c2) {
      // Chunk cost with per-level capacities (c1, c2).
      double cost = 0.0;
      std::uint32_t served = 0;
      for (std::uint32_t i = 0; i < c1 && served < 20; ++i, ++served) {
        cost += p[served] * 1.0;
      }
      for (std::uint32_t i = 0; i < c2 && served < 20; ++i, ++served) {
        cost += p[served] * 2.0;
      }
      for (std::uint32_t r = served; r < 20; ++r) cost += p[r] * 3.0;
      best = std::min(best, cost);
    }
  }
  EXPECT_NEAR(greedy.expected_cost, best, 1e-9);
}

TEST(BudgetAllocation, LeavesDominateForSteepZipf) {
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 5),
                                     zipf_probabilities(10'000, 1.5), 500);
  const auto allocation = optimizer.optimize_level_budgets(31'000);
  // §2.2: "a majority of the total caching budget to the leaves".
  EXPECT_GT(allocation.budget_share[0], 0.5);
  for (std::size_t level = 1; level < allocation.budget_share.size(); ++level) {
    EXPECT_GT(allocation.budget_share[0], allocation.budget_share[level]);
  }
}

TEST(BudgetAllocation, BeatsOrMatchesUniformSplit) {
  for (const double alpha : {0.7, 1.0, 1.3}) {
    const TreeCacheOptimizer optimizer(AccessTreeShape(2, 4),
                                       zipf_probabilities(2'000, alpha), 50);
    const auto allocation = optimizer.optimize_level_budgets(30 * 50);
    const auto uniform = optimizer.chunk_solution();
    EXPECT_LE(allocation.expected_cost, uniform.expected_cost + 1e-9)
        << "alpha=" << alpha;
  }
}

TEST(BudgetAllocation, RequiresSortedProbabilities) {
  const std::vector<double> p = {0.1, 0.9};
  const TreeCacheOptimizer optimizer(AccessTreeShape(2, 1), p, 1);
  EXPECT_THROW((void)optimizer.optimize_level_budgets(4), std::logic_error);
}

}  // namespace
