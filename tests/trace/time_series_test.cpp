#include "eacs/trace/time_series.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace eacs::trace {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when `run` throws std::invalid_argument whose message contains
/// `needle` (the index or argument it names).
template <typename Fn>
bool rejected_naming(Fn&& run, const std::string& needle) {
  try {
    run();
  } catch (const std::invalid_argument& error) {
    return std::string(error.what()).find(needle) != std::string::npos;
  }
  return false;
}

TimeSeries ramp() {
  // value = t over [0, 10]
  TimeSeries series;
  for (int i = 0; i <= 10; ++i) series.append(i, i);
  return series;
}

TEST(TimeSeriesTest, AppendRejectsDecreasingTime) {
  TimeSeries series;
  series.append(0.0, 1.0);
  series.append(1.0, 2.0);
  // Duplicate timestamps model step discontinuities and are allowed; only
  // going backwards in time is an error.
  EXPECT_NO_THROW(series.append(1.0, 3.0));
  EXPECT_THROW(series.append(0.5, 3.0), std::invalid_argument);
  // A NaN time compares false against every other, so an order check alone
  // would let it in, first or later.
  EXPECT_TRUE(rejected_naming([&] { series.append(kNan, 3.0); }, "t_s"));
  TimeSeries empty;
  EXPECT_TRUE(rejected_naming([&] { empty.append(kNan, 3.0); }, "t_s"));
  EXPECT_EQ(series.size(), 3U);
  EXPECT_TRUE(empty.empty());
}

TEST(TimeSeriesTest, ConstructorValidates) {
  EXPECT_THROW(TimeSeries({{1.0, 0.0}, {0.5, 1.0}}), std::invalid_argument);
  EXPECT_NO_THROW(TimeSeries({{1.0, 0.0}, {1.0, 1.0}}));
  EXPECT_NO_THROW(TimeSeries({{0.0, 0.0}, {1.0, 1.0}}));
  // NaN timestamps, named by index: between ordered samples, first, last
  // and alone.
  EXPECT_TRUE(rejected_naming(
      [] { TimeSeries({{0.0, 1.0}, {1.0, 2.0}, {kNan, 3.0}, {3.0, 4.0}}); },
      "sample 2"));
  EXPECT_TRUE(rejected_naming([] { TimeSeries({{kNan, 1.0}, {1.0, 2.0}}); },
                              "sample 0"));
  EXPECT_TRUE(rejected_naming([] { TimeSeries({{0.0, 1.0}, {kNan, 2.0}}); },
                              "sample 1"));
  EXPECT_TRUE(rejected_naming([] { TimeSeries({{kNan, 1.0}}); }, "sample 0"));
}

TEST(TimeSeriesTest, InfiniteTimestampsStayOrdered) {
  // -inf and +inf order like any other time: a series may start at -inf or
  // end at +inf, and queries between them interpolate as usual.
  TimeSeries series({{-kInf, 1.0}, {0.0, 2.0}, {2.0, 4.0}, {kInf, 5.0}});
  series.append(kInf, 6.0);
  EXPECT_EQ(series.size(), 5U);
  EXPECT_DOUBLE_EQ(series.linear_at(1.0), 3.0);
  EXPECT_DOUBLE_EQ(series.integral_over(0.0, 2.0), 6.0);
  EXPECT_THROW(series.append(1.0, 0.0), std::invalid_argument);
}

TEST(TimeSeriesTest, DuplicateTimestampIsStepDiscontinuity) {
  // A zero-width breakpoint: the value jumps from 10 to 0 at t=2 and back to
  // 10 at t=4. The last duplicate wins at the step instant.
  TimeSeries series({{0.0, 10.0}, {2.0, 10.0}, {2.0, 0.0}, {4.0, 0.0}, {4.0, 10.0}});
  EXPECT_DOUBLE_EQ(series.linear_at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(series.linear_at(3.0), 0.0);
  EXPECT_DOUBLE_EQ(series.linear_at(2.0), 0.0);
  EXPECT_DOUBLE_EQ(series.linear_at(4.0), 10.0);
  // Integral: 10 over [0,2], 0 over [2,4].
  EXPECT_NEAR(series.integral_over(0.0, 4.0), 20.0, 1e-9);
}

TEST(TimeSeriesTest, StepAtFirstTimestampResolvesToLastDuplicate) {
  TimeSeries series({{0.0, 5.0}, {0.0, 7.0}, {1.0, 7.0}});
  EXPECT_EQ(series.index_at_or_before(0.0), 1U);
  EXPECT_DOUBLE_EQ(series.linear_at(0.0), 7.0);
  EXPECT_DOUBLE_EQ(series.linear_at(-1.0), 5.0);  // clamped to front sample
}

TEST(TimeSeriesTest, StepAt) {
  // The zero-order-hold index every lookup resolves through: the last
  // sample at or before t, and the first sample before the series starts.
  TimeSeries series({{0.0, 10.0}, {2.0, 20.0}, {4.0, 30.0}});
  EXPECT_EQ(series.index_at_or_before(-1.0), 0U);
  EXPECT_EQ(series.index_at_or_before(0.0), 0U);
  EXPECT_EQ(series.index_at_or_before(1.99), 0U);
  EXPECT_EQ(series.index_at_or_before(2.0), 1U);
  EXPECT_EQ(series.index_at_or_before(100.0), 2U);
}

TEST(TimeSeriesTest, LinearAt) {
  TimeSeries series({{0.0, 0.0}, {2.0, 10.0}});
  EXPECT_DOUBLE_EQ(series.linear_at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(series.linear_at(-5.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(series.linear_at(99.0), 10.0);  // clamped
}

TEST(TimeSeriesTest, EmptyLookupsThrow) {
  TimeSeries series;
  EXPECT_TRUE(series.empty());
  EXPECT_THROW(series.linear_at(0.0), std::logic_error);
  EXPECT_THROW(series.start_time(), std::logic_error);
}

TEST(TimeSeriesTest, IntegralOfRamp) {
  const auto series = ramp();
  // integral of t over [0, 10] = 50.
  EXPECT_NEAR(series.integral_over(0.0, 10.0), 50.0, 1e-9);
  // integral over [2, 4] = (4^2 - 2^2)/2 = 6.
  EXPECT_NEAR(series.integral_over(2.0, 4.0), 6.0, 1e-9);
  // off-breakpoint bounds
  EXPECT_NEAR(series.integral_over(2.5, 3.5), 3.0, 1e-9);
}

TEST(TimeSeriesTest, IntegralDegenerateAndInvalid) {
  const auto series = ramp();
  EXPECT_DOUBLE_EQ(series.integral_over(3.0, 3.0), 0.0);
  EXPECT_THROW(series.integral_over(4.0, 3.0), std::invalid_argument);
  // NaN bounds fail t1 >= t0 too, and name the bounds; mean_over reaches
  // integral_over's check.
  EXPECT_TRUE(rejected_naming([&] { series.integral_over(0.0, kNan); }, "t1"));
  EXPECT_TRUE(rejected_naming([&] { series.integral_over(kNan, 4.0); }, "t0"));
  EXPECT_TRUE(rejected_naming([&] { series.integral_over(kNan, kNan); }, "t0"));
  EXPECT_TRUE(rejected_naming([&] { series.mean_over(kNan, 1.0); }, "t0"));
  EXPECT_TRUE(rejected_naming([&] { series.mean_over(1.0, kNan); }, "t1"));
}

TEST(TimeSeriesTest, IntegralBeyondEndExtendsLastValue) {
  TimeSeries series({{0.0, 2.0}, {1.0, 2.0}});
  EXPECT_NEAR(series.integral_over(0.0, 5.0), 10.0, 1e-9);
}

TEST(TimeSeriesTest, MeanOver) {
  const auto series = ramp();
  EXPECT_NEAR(series.mean_over(0.0, 10.0), 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(series.mean_over(3.0, 3.0), 3.0);
}

TEST(TimeSeriesTest, ValuesInOrder) {
  TimeSeries series({{0.0, 3.0}, {1.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(series.values(), (std::vector<double>{3.0, 1.0, 2.0}));
}

}  // namespace
}  // namespace eacs::trace
