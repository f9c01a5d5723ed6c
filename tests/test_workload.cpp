// Workload substrate tests: Zipf sampling and fitting, traces, synthetic
// CDN reconstruction, size models, and the spatial-skew permutation model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "workload/size_model.hpp"
#include "workload/spatial_skew.hpp"
#include "workload/synthetic_cdn.hpp"
#include "workload/trace.hpp"
#include "workload/zipf.hpp"
#include "workload/zipf_fit.hpp"

namespace {

using namespace idicn::workload;

// --- Zipf distribution ------------------------------------------------------

TEST(Zipf, ProbabilitiesSumToOneAndDecrease) {
  const ZipfDistribution zipf(1000, 0.9);
  double total = 0.0;
  double previous = 1.0;
  for (std::uint32_t rank = 1; rank <= 1000; ++rank) {
    const double p = zipf.probability(rank);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, previous + 1e-12);
    previous = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(zipf.cumulative(1000), 1.0);
}

TEST(Zipf, AlphaZeroIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  for (std::uint32_t rank = 1; rank <= 10; ++rank) {
    EXPECT_NEAR(zipf.probability(rank), 0.1, 1e-12);
  }
}

TEST(Zipf, RatiosFollowPowerLaw) {
  const ZipfDistribution zipf(100, 1.0);
  EXPECT_NEAR(zipf.probability(1) / zipf.probability(2), 2.0, 1e-9);
  EXPECT_NEAR(zipf.probability(1) / zipf.probability(10), 10.0, 1e-9);
}

TEST(Zipf, SamplingMatchesDistribution) {
  const ZipfDistribution zipf(50, 1.2);
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng) - 1];
  for (std::uint32_t rank = 1; rank <= 10; ++rank) {
    const double expected = zipf.probability(rank) * n;
    EXPECT_NEAR(static_cast<double>(counts[rank - 1]), expected,
                5.0 * std::sqrt(expected) + 5)
        << "rank " << rank;
  }
}

TEST(Zipf, InvalidArgumentsThrow) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.1), std::invalid_argument);
  const ZipfDistribution zipf(10, 1.0);
  EXPECT_THROW((void)zipf.probability(0), std::out_of_range);
  EXPECT_THROW((void)zipf.probability(11), std::out_of_range);
}

TEST(Zipf, HarmonicMatchesDirectSum) {
  double direct = 0.0;
  for (int i = 1; i <= 100; ++i) direct += std::pow(i, -0.8);
  EXPECT_NEAR(ZipfDistribution::harmonic(100, 0.8), direct, 1e-9);
}

// --- Zipf fitting (Table 2's estimation task) --------------------------------

class ZipfFitRecovers : public ::testing::TestWithParam<double> {};

TEST_P(ZipfFitRecovers, LeastSquaresAndMle) {
  const double alpha = GetParam();
  const ZipfDistribution zipf(2000, alpha);
  std::mt19937_64 rng(17);
  std::vector<std::uint32_t> stream;
  stream.reserve(300000);
  for (int i = 0; i < 300000; ++i) stream.push_back(zipf.sample(rng));

  const std::vector<std::uint64_t> counts = rank_frequencies(stream);
  const ZipfFit fit = fit_zipf_least_squares(counts);
  // Log–log LSQ on finite samples is biased by the noisy tail; the shape
  // recovery tolerance reflects that (the paper's fits carry the same
  // caveat).
  EXPECT_NEAR(fit.alpha, alpha, 0.15) << "LSQ";
  EXPECT_GT(fit.r_squared, 0.90);

  const double mle = fit_zipf_mle(counts);
  EXPECT_NEAR(mle, alpha, 0.05) << "MLE";
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfFitRecovers,
                         ::testing::Values(0.7, 0.92, 0.99, 1.04, 1.3));

TEST(ZipfFit, RankFrequenciesSortedDescending) {
  const std::vector<std::uint32_t> stream = {1, 1, 1, 2, 2, 3, 9, 9, 9, 9};
  const std::vector<std::uint64_t> counts = rank_frequencies(stream);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{4, 3, 2, 1}));
}

TEST(ZipfFit, TooFewRanksThrow) {
  const std::vector<std::uint64_t> one = {5};
  EXPECT_THROW((void)fit_zipf_least_squares(one), std::invalid_argument);
  EXPECT_THROW((void)fit_zipf_mle(one), std::invalid_argument);
}

// --- traces ------------------------------------------------------------------

TEST(Trace, DistinctObjects) {
  Trace trace;
  trace.object_count = 10;
  trace.requests = {{1, 1}, {1, 1}, {2, 1}};
  EXPECT_EQ(trace.distinct_objects(), 2u);
}

// --- synthetic CDN reconstruction --------------------------------------------

TEST(SyntheticCdn, ProfilesMatchPaper) {
  const auto profiles = paper_region_profiles(1.0);
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0].name, "US");
  EXPECT_EQ(profiles[0].request_count, 1'100'000u);
  EXPECT_DOUBLE_EQ(profiles[0].alpha, 0.99);
  EXPECT_EQ(profiles[1].name, "Europe");
  EXPECT_EQ(profiles[1].request_count, 3'100'000u);
  EXPECT_DOUBLE_EQ(profiles[1].alpha, 0.92);
  EXPECT_EQ(profiles[2].name, "Asia");
  EXPECT_EQ(profiles[2].request_count, 1'800'000u);
  EXPECT_DOUBLE_EQ(profiles[2].alpha, 1.04);
}

TEST(SyntheticCdn, GeneratedTraceHasRequestedShape) {
  RegionProfile profile = paper_region_profile("Asia", 0.02);
  const Trace trace = generate_trace(profile);
  EXPECT_EQ(trace.requests.size(), profile.request_count);
  EXPECT_EQ(trace.object_count, profile.object_count);

  // The trace's fitted exponent must recover the profile's alpha.
  std::vector<std::uint32_t> stream;
  stream.reserve(trace.requests.size());
  for (const Request& r : trace.requests) stream.push_back(r.object);
  const double mle = fit_zipf_mle(rank_frequencies(stream));
  EXPECT_NEAR(mle, profile.alpha, 0.06);
}

TEST(SyntheticCdn, ObjectIdsCarryNoRankInformation) {
  RegionProfile profile;
  profile.name = "t";
  profile.request_count = 50000;
  profile.object_count = 5000;
  profile.alpha = 1.0;
  profile.seed = 3;
  const Trace trace = generate_trace(profile);
  // If ids were ranks, low ids would dominate; check the mean requested id
  // is near the middle of the universe instead.
  double mean_id = 0;
  for (const Request& r : trace.requests) mean_id += r.object;
  mean_id /= static_cast<double>(trace.requests.size());
  EXPECT_NEAR(mean_id, 2500.0, 500.0);
}

TEST(SyntheticCdn, DeterministicPerSeed) {
  RegionProfile profile = paper_region_profile("US", 0.001);
  const Trace a = generate_trace(profile);
  const Trace b = generate_trace(profile);
  EXPECT_EQ(a.requests, b.requests);
  profile.seed ^= 1;
  const Trace c = generate_trace(profile);
  EXPECT_NE(a.requests, c.requests);
}

TEST(SyntheticCdn, UnknownRegionThrows) {
  EXPECT_THROW(paper_region_profile("Mars"), std::invalid_argument);
  EXPECT_THROW(paper_region_profiles(0.0), std::invalid_argument);
  EXPECT_THROW(paper_region_profiles(1.5), std::invalid_argument);
}

// --- size models --------------------------------------------------------------

TEST(SizeModel, UnitIsAlwaysOne) {
  SizeModel model;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.sample(rng), 1u);
}

class HeavySizeModels : public ::testing::TestWithParam<SizeModelKind> {};

TEST_P(HeavySizeModels, MeanApproximatelyRespected) {
  const SizeModel model(GetParam(), 100.0);
  std::mt19937_64 rng(2);
  double total = 0.0;
  std::uint64_t max_seen = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t s = model.sample(rng);
    EXPECT_GE(s, 1u);
    total += static_cast<double>(s);
    max_seen = std::max(max_seen, s);
  }
  EXPECT_NEAR(total / n, 100.0, 25.0);
  EXPECT_GT(max_seen, 500u);  // heavy tail produces outliers
}

INSTANTIATE_TEST_SUITE_P(Kinds, HeavySizeModels,
                         ::testing::Values(SizeModelKind::LogNormal,
                                           SizeModelKind::Pareto),
                         [](const auto& info) { return to_string(info.param); });

TEST(SizeModel, RejectsTinyMean) {
  EXPECT_THROW(SizeModel(SizeModelKind::LogNormal, 0.5), std::invalid_argument);
}

// --- spatial skew ---------------------------------------------------------------

TEST(SpatialSkew, ZeroIsGlobalRanking) {
  const SpatialSkewModel model(100, 5, 0.0, 9);
  for (std::uint32_t p = 0; p < 5; ++p) {
    for (std::uint32_t r = 1; r <= 100; ++r) {
      EXPECT_EQ(model.object_for(p, r), r - 1);
    }
  }
  EXPECT_NEAR(model.measured_skew(), 0.0, 1e-12);
}

TEST(SpatialSkew, PermutationsAreBijections) {
  const SpatialSkewModel model(200, 4, 0.7, 10);
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::vector<bool> seen(200, false);
    for (std::uint32_t r = 1; r <= 200; ++r) {
      const std::uint32_t o = model.object_for(p, r);
      ASSERT_LT(o, 200u);
      EXPECT_FALSE(seen[o]);
      seen[o] = true;
      EXPECT_EQ(model.rank_of(p, o), r);  // inverse consistency
    }
  }
}

TEST(SpatialSkew, MeasuredSkewGrowsWithIntensity) {
  double previous = -1.0;
  for (const double s : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const SpatialSkewModel model(500, 8, s, 11);
    const double measured = model.measured_skew();
    EXPECT_GT(measured, previous) << "s=" << s;
    previous = measured;
  }
}

TEST(SpatialSkew, FullIntensityDecorrelatesPops) {
  const SpatialSkewModel model(1000, 2, 1.0, 12);
  // Rank correlation between the two pops should be near zero: compare the
  // top-100 sets.
  std::set<std::uint32_t> top0, top1;
  for (std::uint32_t r = 1; r <= 100; ++r) {
    top0.insert(model.object_for(0, r));
    top1.insert(model.object_for(1, r));
  }
  std::vector<std::uint32_t> intersection;
  std::set_intersection(top0.begin(), top0.end(), top1.begin(), top1.end(),
                        std::back_inserter(intersection));
  EXPECT_LT(intersection.size(), 40u);  // mostly disjoint top sets
}

TEST(SpatialSkew, InvalidArgumentsThrow) {
  EXPECT_THROW(SpatialSkewModel(0, 2, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(SpatialSkewModel(10, 0, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(SpatialSkewModel(10, 2, 1.5, 1), std::invalid_argument);
  const SpatialSkewModel model(10, 2, 0.5, 1);
  EXPECT_THROW((void)model.object_for(2, 1), std::out_of_range);
  EXPECT_THROW((void)model.object_for(0, 0), std::out_of_range);
  EXPECT_THROW((void)model.rank_of(0, 10), std::out_of_range);
}

}  // namespace
