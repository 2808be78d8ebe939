// Property tests for TimeSeriesCursor: for ANY query sequence the cursor
// must return values bitwise identical to the stateless TimeSeries lookup,
// including at duplicate-timestamp step edges (right-continuous, the last
// duplicate wins). The cursor is the inner-loop optimisation the
// SessionEngine fast path rides on, so these tests are part of the DESIGN §6
// bit-identity certification alongside tests/differential/.

#include "eacs/trace/time_series.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

namespace eacs::trace {
namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t out = 0;
  std::memcpy(&out, &x, sizeof(out));
  return out;
}

// Random series with duplicate timestamps (step edges) sprinkled in.
TimeSeries random_series(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> gap(0.0, 2.0);
  std::uniform_real_distribution<double> value(-120.0, 60.0);
  std::bernoulli_distribution duplicate(0.15);
  TimeSeries out;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && !duplicate(rng)) t += gap(rng);
    out.append(t, value(rng));
  }
  return out;
}

TEST(TimeSeriesCursorTest, RandomWalkMatchesStatelessLookupsBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TimeSeries series = random_series(seed, 200);
    TimeSeriesCursor cursor(series);
    std::mt19937_64 rng(seed * 7919);
    // Query walk: mostly small forward steps (the engine's access pattern),
    // with backward jumps, repeats and out-of-range excursions mixed in.
    std::uniform_real_distribution<double> step(-3.0, 5.0);
    std::uniform_real_distribution<double> anywhere(-10.0, series.end_time() + 10.0);
    std::bernoulli_distribution jump(0.1);
    std::bernoulli_distribution repeat(0.1);
    double t = -5.0;
    double prev = t;
    for (int q = 0; q < 2000; ++q) {
      if (repeat(rng)) {
        t = prev;
      } else if (jump(rng)) {
        t = anywhere(rng);
      } else {
        t += step(rng);
      }
      prev = t;
      ASSERT_EQ(bits_of(cursor.linear_at(t)), bits_of(series.linear_at(t)))
          << "seed " << seed << " query " << q << " t=" << t;
    }
  }
}

TEST(TimeSeriesCursorTest, DuplicateTimestampStepEdgeLastWins) {
  // Pinned contract: at a zero-width breakpoint the lookup is
  // right-continuous and the *last* duplicate defines the value.
  TimeSeries series({{0.0, 1.0}, {5.0, 2.0}, {5.0, 9.0}, {5.0, 7.0}, {10.0, 3.0}});
  TimeSeriesCursor cursor(series);

  EXPECT_EQ(series.linear_at(5.0), 7.0);
  EXPECT_EQ(cursor.linear_at(5.0), 7.0);

  // Approaching the edge from both sides, in both query orders.
  for (const double t : {4.999, 5.0, 5.001, 4.0, 6.0, 5.0, 0.0, 10.0, 5.0}) {
    EXPECT_EQ(bits_of(cursor.linear_at(t)), bits_of(series.linear_at(t))) << t;
  }
  EXPECT_EQ(series.index_at_or_before(5.0), 3U);  // the last duplicate
}

TEST(TimeSeriesCursorTest, OutOfRangeClampsLikeTheSeries) {
  TimeSeries series({{1.0, 4.0}, {2.0, 8.0}});
  TimeSeriesCursor cursor(series);
  EXPECT_EQ(cursor.linear_at(-100.0), 4.0);
  EXPECT_EQ(cursor.linear_at(100.0), 8.0);
  // Back in range after the far excursions.
  EXPECT_EQ(bits_of(cursor.linear_at(1.5)), bits_of(series.linear_at(1.5)));
}

TEST(TimeSeriesCursorTest, SurvivesAppendsToTheSeries) {
  TimeSeries series({{0.0, 1.0}, {1.0, 2.0}});
  TimeSeriesCursor cursor(series);
  EXPECT_EQ(cursor.linear_at(0.5), series.linear_at(0.5));
  series.append(2.0, 10.0);
  series.append(3.0, 0.0);
  for (const double t : {2.5, 0.25, 3.5, 1.0}) {
    EXPECT_EQ(bits_of(cursor.linear_at(t)), bits_of(series.linear_at(t))) << t;
  }
}

TEST(TimeSeriesCursorTest, ManyCursorsShareOneSeriesIndependently) {
  const TimeSeries series = random_series(42, 64);
  TimeSeriesCursor a(series);
  TimeSeriesCursor b(series);
  // a walks forward while b walks backward; neither disturbs the other.
  for (int q = 0; q < 100; ++q) {
    const double ta = 0.5 * q;
    const double tb = 50.0 - 0.5 * q;
    EXPECT_EQ(bits_of(a.linear_at(ta)), bits_of(series.linear_at(ta)));
    EXPECT_EQ(bits_of(b.linear_at(tb)), bits_of(series.linear_at(tb)));
  }
}

TEST(TimeSeriesCursorTest, EmptySeriesThrowsLikeTheStatelessLookup) {
  TimeSeries empty;
  TimeSeriesCursor cursor(empty);
  EXPECT_THROW(cursor.linear_at(0.0), std::logic_error);
}

TEST(TimeSeriesCursorTest, SingleSampleSeries) {
  TimeSeries series({{2.0, 5.0}});
  TimeSeriesCursor cursor(series);
  for (const double t : {-1.0, 2.0, 7.0}) {
    EXPECT_EQ(cursor.linear_at(t), 5.0);
  }
}

TEST(TimeSeriesCursorTest, LongMonotoneWalkStaysExact) {
  // The fast path's canonical access pattern: thousands of small forward
  // steps across a long trace (amortised O(1) per query).
  const TimeSeries series = random_series(7, 5000);
  TimeSeriesCursor cursor(series);
  const double end = series.end_time();
  for (double t = -1.0; t < end + 2.0; t += 0.01 * end / 50.0) {
    ASSERT_EQ(bits_of(cursor.linear_at(t)), bits_of(series.linear_at(t))) << t;
  }
}

}  // namespace
}  // namespace eacs::trace
