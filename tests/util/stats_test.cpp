#include "eacs/util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "eacs/util/rng.h"

namespace eacs {
namespace {

TEST(StatsTest, MeanBasics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(StatsTest, VarianceAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
}

TEST(StatsTest, Rms) {
  const std::vector<double> xs = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(rms(xs), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(rms(std::vector<double>{}), 0.0);
}

TEST(StatsTest, HarmonicMeanBasics) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_NEAR(harmonic_mean(xs), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
}

TEST(StatsTest, HarmonicMeanIgnoresNonPositive) {
  const std::vector<double> xs = {0.0, -5.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(harmonic_mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(harmonic_mean(std::vector<double>{0.0, -1.0}), 0.0);
}

TEST(StatsTest, HarmonicMeanDampsSpikes) {
  // One 100 Mbps spike among 1 Mbps samples barely moves the harmonic mean —
  // the property FESTIVE and the paper's online algorithm rely on.
  const std::vector<double> spiky = {1.0, 1.0, 1.0, 1.0, 100.0};
  EXPECT_LT(harmonic_mean(spiky), 1.3);
  EXPECT_GT(mean(spiky), 20.0);
}

TEST(JainFairnessTest, Extremes) {
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<double>{}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<double>{3.0, 3.0, 3.0}), 1.0);
  // One client hogging everything among n: J = 1/n.
  EXPECT_NEAR(jain_fairness(std::vector<double>{6.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  const double mixed = jain_fairness(std::vector<double>{4.0, 2.0});
  EXPECT_GT(mixed, 0.5);
  EXPECT_LT(mixed, 1.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(RunningStatsTest, MatchesBatchStatistics) {
  Rng rng(71);
  std::vector<double> xs;
  RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(stats.variance(), variance(xs), 1e-6);
  EXPECT_DOUBLE_EQ(stats.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(stats.max(), *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(stats.count(), xs.size());
}

TEST(RunningStatsTest, MergeEqualsSingleStream) {
  Rng rng(73);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    all.add(x);
    (i < 700 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.count(), all.count());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  RunningStats b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1U);
  b.merge(a);
  EXPECT_EQ(b.count(), 1U);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(SlidingWindowTest, EvictsOldestFirst) {
  SlidingWindow window(3);
  window.push(1.0);
  window.push(2.0);
  window.push(3.0);
  window.push(4.0);  // evicts 1.0
  const auto values = window.values();
  EXPECT_EQ(values, (std::vector<double>{2.0, 3.0, 4.0}));
  EXPECT_TRUE(window.full());
}

TEST(SlidingWindowTest, StatsOverWindowOnly) {
  SlidingWindow window(2);
  window.push(10.0);
  window.push(2.0);
  window.push(4.0);  // window = {2, 4}
  EXPECT_DOUBLE_EQ(window.mean(), 3.0);
  EXPECT_NEAR(window.harmonic_mean(), 2.0 / (0.5 + 0.25), 1e-12);
}

TEST(SlidingWindowTest, ClearResets) {
  SlidingWindow window(2);
  window.push(1.0);
  window.clear();
  EXPECT_EQ(window.size(), 0U);
  EXPECT_DOUBLE_EQ(window.mean(), 0.0);
}

TEST(SlidingWindowTest, ZeroCapacityThrows) {
  EXPECT_THROW(SlidingWindow(0), std::invalid_argument);
}

TEST(P2QuantileTest, ValidatesProbability) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2QuantileTest, ExactBelowFiveSamples) {
  P2Quantile median(0.5);
  EXPECT_DOUBLE_EQ(median.value(), 0.0);  // empty convention
  median.add(7.0);
  EXPECT_DOUBLE_EQ(median.value(), 7.0);
  median.add(1.0);
  median.add(3.0);
  // Exactly the interpolated percentile over the retained samples.
  EXPECT_DOUBLE_EQ(median.value(),
                   percentile(std::vector<double>{7.0, 1.0, 3.0}, 50.0));
}

TEST(P2QuantileTest, TracksExactQuantilesWithinTolerance) {
  // The pinned-tolerance contract against the exact sorted quantile, over a
  // deterministic but shuffled heavy-ish stream. 2% of the spread is the
  // acceptance bound the fleet reporting relies on.
  Rng rng(0xC0FFEE);
  for (const double p : {0.25, 0.5, 0.9, 0.99}) {
    P2Quantile q(p);
    std::vector<double> all;
    for (std::size_t i = 0; i < 20000; ++i) {
      const double u = rng.uniform();
      const double x = u * u * 100.0;  // skewed toward 0, tail to 100
      q.add(x);
      all.push_back(x);
    }
    const double exact = percentile(all, p * 100.0);
    const double spread = percentile(all, 99.9) - percentile(all, 0.1);
    EXPECT_NEAR(q.value(), exact, 0.02 * spread)
        << "p=" << p;
    EXPECT_EQ(q.count(), all.size());
  }
}

TEST(P2QuantileTest, DeterministicAcrossRuns) {
  const auto run = [] {
    P2Quantile q(0.9);
    Rng rng(42);
    for (std::size_t i = 0; i < 1000; ++i) q.add(rng.uniform() * 10.0);
    return q.value();
  };
  EXPECT_EQ(run(), run());
}

TEST(ReservoirSamplerTest, ValidatesCapacity) {
  EXPECT_THROW(ReservoirSampler(0), std::invalid_argument);
}

TEST(ReservoirSamplerTest, RetainsEverythingUnderCapacity) {
  ReservoirSampler sampler(100);
  for (double x : {5.0, 1.0, 9.0, 3.0}) sampler.add(x);
  EXPECT_EQ(sampler.count(), 4U);
  EXPECT_EQ(sampler.sample().size(), 4U);
  // Below capacity the reservoir is the stream: quantiles are exact.
  EXPECT_DOUBLE_EQ(sampler.quantile(0.5),
                   percentile(std::vector<double>{5.0, 1.0, 9.0, 3.0}, 50.0));
  EXPECT_DOUBLE_EQ(sampler.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sampler.quantile(1.0), 9.0);
}

TEST(ReservoirSamplerTest, QuantilesApproximateExactSortedQuantiles) {
  // Pinned tolerance vs. the exact sorted quantile: a 1024-slot reservoir
  // over 50k skewed samples must land each probe within 5% of the spread.
  ReservoirSampler sampler(1024, 0x5EED);
  Rng rng(0xFEED);
  std::vector<double> all;
  for (std::size_t i = 0; i < 50000; ++i) {
    const double u = rng.uniform();
    const double x = u * u * u * 1000.0;
    sampler.add(x);
    all.push_back(x);
  }
  EXPECT_EQ(sampler.count(), all.size());
  EXPECT_EQ(sampler.sample().size(), 1024U);
  const double spread = percentile(all, 99.0) - percentile(all, 1.0);
  for (const double p : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(sampler.quantile(p), percentile(all, p * 100.0), 0.05 * spread)
        << "p=" << p;
  }
}

TEST(ReservoirSamplerTest, DeterministicInSeed) {
  const auto run = [](std::uint64_t seed) {
    ReservoirSampler sampler(32, seed);
    Rng rng(7);
    for (std::size_t i = 0; i < 500; ++i) sampler.add(rng.uniform());
    return sampler.quantile(0.5);
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // the eviction stream really depends on the seed
}

TEST(ReservoirSamplerTest, MergeAccumulatesShards) {
  // Sharded aggregation: N per-shard reservoirs merged in shard order must
  // (a) count the union stream, (b) stay deterministic, and (c) estimate
  // quantiles of the union within the pinned tolerance.
  std::vector<double> all;
  ReservoirSampler merged(512, 0xABCD);
  Rng rng(11);
  for (std::size_t shard = 0; shard < 8; ++shard) {
    ReservoirSampler local(512, 0x1000 + shard);
    for (std::size_t i = 0; i < 4000; ++i) {
      // Shards see shifted distributions, like regions of different load.
      const double x = rng.uniform() * 50.0 + static_cast<double>(shard) * 10.0;
      local.add(x);
      all.push_back(x);
    }
    merged.merge(local);
  }
  EXPECT_EQ(merged.count(), all.size());
  const double spread = percentile(all, 99.0) - percentile(all, 1.0);
  for (const double p : {0.25, 0.5, 0.75}) {
    EXPECT_NEAR(merged.quantile(p), percentile(all, p * 100.0), 0.06 * spread)
        << "p=" << p;
  }
}

TEST(ReservoirSamplerTest, MergeGroupingsAgreeOnCountAndTolerance) {
  // Merge is statistically associative: ((A+B)+C) and (A+(B+C)) see the same
  // union count and agree on quantiles within the sampling tolerance.
  const auto fill = [](std::uint64_t seed, double offset) {
    ReservoirSampler sampler(256, seed);
    Rng rng(seed ^ 0x9E37);
    for (std::size_t i = 0; i < 3000; ++i) sampler.add(rng.uniform() * 20.0 + offset);
    return sampler;
  };
  const ReservoirSampler a = fill(1, 0.0);
  const ReservoirSampler b = fill(2, 5.0);
  const ReservoirSampler c = fill(3, 10.0);

  ReservoirSampler left = a;
  left.merge(b);
  left.merge(c);
  ReservoirSampler bc = b;
  bc.merge(c);
  ReservoirSampler right = a;
  right.merge(bc);

  EXPECT_EQ(left.count(), 9000U);
  EXPECT_EQ(right.count(), 9000U);
  EXPECT_NEAR(left.quantile(0.5), right.quantile(0.5), 2.0);
}

TEST(ReservoirSamplerTest, MergeWithEmptySides) {
  ReservoirSampler empty(16, 1);
  ReservoirSampler full(16, 2);
  for (double x : {1.0, 2.0, 3.0}) full.add(x);

  ReservoirSampler a = full;
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 3U);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 2.0);

  ReservoirSampler b = empty;
  b.merge(full);  // adopts the other sample
  EXPECT_EQ(b.count(), 3U);
  EXPECT_DOUBLE_EQ(b.quantile(0.5), 2.0);
}

}  // namespace
}  // namespace eacs
