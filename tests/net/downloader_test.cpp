#include "eacs/net/downloader.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "eacs/net/bandwidth_estimator.h"

namespace eacs::net {
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

trace::TimeSeries constant_rate(double mbps, double duration = 100.0) {
  trace::TimeSeries series;
  series.append(0.0, mbps);
  series.append(duration, mbps);
  return series;
}

TEST(SegmentDownloaderTest, ConstantRateDuration) {
  SegmentDownloader downloader(constant_rate(8.0));
  // 16 megabits at 8 Mbps = 2 s.
  const auto result = downloader.download(1.0, 16.0);
  EXPECT_DOUBLE_EQ(result.start_s, 1.0);
  EXPECT_NEAR(result.end_s, 3.0, 1e-9);
  EXPECT_NEAR(result.mean_throughput_mbps, 8.0, 1e-9);
}

TEST(SegmentDownloaderTest, ZeroSizeFinishesInstantly) {
  SegmentDownloader downloader(constant_rate(8.0));
  const auto result = downloader.download(5.0, 0.0);
  EXPECT_DOUBLE_EQ(result.end_s, 5.0);
}

TEST(SegmentDownloaderTest, NegativeSizeThrows) {
  SegmentDownloader downloader(constant_rate(8.0));
  EXPECT_THROW(downloader.download(0.0, -1.0), std::invalid_argument);
  // NaN passes a `< 0` check; a NaN size or start would end at t = NaN.
  EXPECT_TRUE(rejected_naming([&] { downloader.download(0.0, kNan); }, "size"));
  EXPECT_TRUE(rejected_naming([&] { downloader.download(kNan, 8.0); }, "start"));
  EXPECT_TRUE(rejected_naming([&] { downloader.download(kNan, 0.0); }, "start"));
}

TEST(SegmentDownloaderTest, EmptyOrNegativeTraceThrows) {
  EXPECT_THROW(SegmentDownloader(trace::TimeSeries{}), std::invalid_argument);
  trace::TimeSeries bad;
  bad.append(0.0, -1.0);
  EXPECT_THROW(SegmentDownloader{bad}, std::invalid_argument);
  // Every rate must be finite and >= 0, and the message names the sample,
  // whichever constructor validates: NaN and +inf pass a `< 0` check, and a
  // download over them ended at t = NaN with a mean of 8e12 Mbps.
  for (const double rate : {kNan, kInf, -kInf, -1.0}) {
    const trace::TimeSeries series({{0.0, 8.0}, {1.0, rate}, {2.0, 8.0}});
    EXPECT_TRUE(rejected_naming([&] { SegmentDownloader{series}; }, "sample 1"))
        << rate;
    EXPECT_TRUE(rejected_naming(
        [&] { SegmentDownloader{trace::TimeSeries(series)}; }, "sample 1"))
        << rate;
    EXPECT_TRUE(rejected_naming(
        [&] {
          SegmentDownloader{std::make_shared<const trace::TimeSeries>(series)};
        },
        "sample 1"))
        << rate;
  }
}

TEST(SegmentDownloaderTest, RampIntegration) {
  // Throughput ramps 0 -> 10 Mbps over 10 s: integral to time t is t^2/2.
  trace::TimeSeries ramp;
  ramp.append(0.0, 0.0);
  ramp.append(10.0, 10.0);
  SegmentDownloader downloader(ramp);
  // 8 megabits done when t^2/2 = 8 -> t = 4.
  const auto result = downloader.download(0.0, 8.0);
  EXPECT_NEAR(result.end_s, 4.0, 1e-9);
}

TEST(SegmentDownloaderTest, PiecewiseTraceCrossesBreakpoints) {
  trace::TimeSeries series;
  series.append(0.0, 4.0);
  series.append(2.0, 4.0);   // 8 megabits by t=2
  series.append(2.0001, 16.0);
  series.append(100.0, 16.0);
  SegmentDownloader downloader(series);
  // 24 megabits: 8 in the first 2 s, remaining 16 at ~16 Mbps ~ 1 s more.
  const auto result = downloader.download(0.0, 24.0);
  EXPECT_NEAR(result.end_s, 3.0, 0.01);
}

TEST(SegmentDownloaderTest, ExtendsPastTraceEnd) {
  SegmentDownloader downloader(constant_rate(8.0, 10.0));
  // Start near the end; most of the transfer runs on the held last value.
  const auto result = downloader.download(9.0, 80.0);
  EXPECT_NEAR(result.end_s, 19.0, 1e-6);
}

TEST(SegmentDownloaderTest, DeadLinkAtTraceEndCapsDuration) {
  trace::TimeSeries dying;
  dying.append(0.0, 8.0);
  dying.append(10.0, 0.0);
  SegmentDownloader downloader(dying);
  const auto result = downloader.download(0.0, 1000.0);
  EXPECT_GT(result.duration_s(), 100.0);  // clearly a stall, not a crash
}

TEST(SegmentDownloaderTest, DuplicateTimestampStepDoesNotDivideByZero) {
  // Regression: a zero-width breakpoint (duplicate timestamp, dt == 0) used
  // to divide by zero inside the breakpoint walk. It must instead act as a
  // clean step discontinuity.
  trace::TimeSeries series;
  series.append(0.0, 4.0);
  series.append(2.0, 4.0);    // 8 megabits by t=2
  series.append(2.0, 16.0);   // instantaneous step, not a ramp
  series.append(100.0, 16.0);
  SegmentDownloader downloader(series);
  // 24 megabits: 8 in the first 2 s at 4 Mbps, remaining 16 at 16 Mbps = 1 s.
  const auto result = downloader.download(0.0, 24.0);
  EXPECT_NEAR(result.end_s, 3.0, 1e-9);
  EXPECT_NEAR(result.mean_throughput_mbps, 8.0, 1e-9);
}

TEST(SegmentDownloaderTest, ZeroWidthOutageWindowHaltsTransfer) {
  // An outage written as zero-width steps (rate -> 0 at t=2, back at t=6):
  // nothing moves inside the window.
  trace::TimeSeries series;
  series.append(0.0, 8.0);
  series.append(2.0, 8.0);
  series.append(2.0, 0.0);
  series.append(6.0, 0.0);
  series.append(6.0, 8.0);
  series.append(100.0, 8.0);
  SegmentDownloader downloader(series);
  // 32 megabits: 16 by t=2, outage until t=6, remaining 16 by t=8.
  const auto result = downloader.download(0.0, 32.0);
  EXPECT_NEAR(result.end_s, 8.0, 1e-9);
}

TEST(SegmentDownloaderTest, BandwidthAtStepEdgeReturnsPostStepValue) {
  // Regression pin for the documented step-edge contract: at a duplicate
  // timestamp t the lookup resolves to the *last* sample at t, so
  // bandwidth_at(t) is the post-step (right-hand) value — right-continuous.
  trace::TimeSeries series;
  series.append(0.0, 4.0);
  series.append(2.0, 4.0);
  series.append(2.0, 16.0);  // step up at t=2
  series.append(6.0, 16.0);
  series.append(6.0, 0.0);   // step down to an outage at t=6
  series.append(100.0, 0.0);
  SegmentDownloader downloader(series);

  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(2.0), 16.0);  // not 4, not a blend
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(6.0), 0.0);
  // Either side of the edge interpolates within its own flat piece.
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(1.999), 4.0);
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(2.001), 16.0);
  // Outside the trace the boundary values are held.
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(-1.0), 4.0);
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(1000.0), 0.0);
}

TEST(SegmentDownloaderTest, BandwidthAtTripleDuplicateUsesLastSample) {
  // With k >= 2 samples at the same t only the final duplicate defines the
  // value at t; intermediate ones are unobservable.
  trace::TimeSeries series;
  series.append(0.0, 8.0);
  series.append(5.0, 8.0);
  series.append(5.0, 2.0);   // shadowed intermediate duplicate
  series.append(5.0, 12.0);  // the value that applies at exactly t=5
  series.append(10.0, 12.0);
  SegmentDownloader downloader(series);
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(5.0), 12.0);
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(4.999), 8.0);
  EXPECT_DOUBLE_EQ(downloader.bandwidth_at(5.001), 12.0);
}

TEST(SegmentDownloaderTest, LaterStartUsesLaterBandwidth) {
  trace::TimeSeries series;
  series.append(0.0, 2.0);
  series.append(50.0, 2.0);
  series.append(50.1, 20.0);
  series.append(200.0, 20.0);
  SegmentDownloader downloader(series);
  const auto slow = downloader.download(0.0, 10.0);
  const auto fast = downloader.download(60.0, 10.0);
  EXPECT_GT(slow.duration_s(), 4.0);
  EXPECT_LT(fast.duration_s(), 1.0);
}

TEST(HarmonicMeanEstimatorTest, MatchesFormula) {
  HarmonicMeanEstimator estimator(20);
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.0);
  estimator.observe(1.0);
  estimator.observe(2.0);
  estimator.observe(4.0);
  EXPECT_NEAR(estimator.estimate(), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
  EXPECT_EQ(estimator.observations(), 3U);
}

TEST(HarmonicMeanEstimatorTest, WindowLimitsHistory) {
  HarmonicMeanEstimator estimator(2);
  estimator.observe(100.0);
  estimator.observe(1.0);
  estimator.observe(1.0);  // the 100 falls out
  EXPECT_NEAR(estimator.estimate(), 1.0, 1e-9);
}

TEST(HarmonicMeanEstimatorTest, FloorsNonPositiveObservations) {
  // Failed transfers (zero throughput) must not vanish from the history —
  // they are recorded at the failure floor so the estimate collapses instead
  // of staying optimistic.
  HarmonicMeanEstimator estimator(5);
  estimator.observe(0.0);
  estimator.observe(-3.0);
  EXPECT_EQ(estimator.observations(), 2U);
  EXPECT_DOUBLE_EQ(estimator.estimate(), kFailureFloorMbps);

  estimator.observe(10.0);
  EXPECT_LT(estimator.estimate(), 0.1);  // harmonic mean stays pessimistic
}

TEST(EmaEstimatorTest, FloorsNonPositiveObservations) {
  EmaEstimator estimator(0.5);
  estimator.observe(8.0);
  estimator.observe(0.0);
  EXPECT_EQ(estimator.observations(), 2U);
  EXPECT_NEAR(estimator.estimate(), 0.5 * 8.0 + 0.5 * kFailureFloorMbps, 1e-12);
}

TEST(EmaEstimatorTest, UnprimedEstimateIsZero) {
  // Documented contract: 0.0 means "no estimate yet"; callers fall back to
  // their startup rung.
  EmaEstimator estimator(0.5);
  EXPECT_EQ(estimator.observations(), 0U);
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.0);
}

TEST(HarmonicMeanEstimatorTest, ResetClears) {
  HarmonicMeanEstimator estimator(5);
  estimator.observe(4.0);
  estimator.reset();
  EXPECT_EQ(estimator.observations(), 0U);
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.0);
}

TEST(EmaEstimatorTest, TracksShifts) {
  EmaEstimator estimator(0.5);
  estimator.observe(10.0);
  estimator.observe(20.0);
  EXPECT_DOUBLE_EQ(estimator.estimate(), 15.0);
  estimator.reset();
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.0);
}

TEST(LastSampleEstimatorTest, ReturnsLatest) {
  LastSampleEstimator estimator;
  estimator.observe(5.0);
  estimator.observe(9.0);
  EXPECT_DOUBLE_EQ(estimator.estimate(), 9.0);
  EXPECT_EQ(estimator.observations(), 2U);
  estimator.reset();
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.0);
}

TEST(EstimatorComparisonTest, HarmonicMeanMoreRobustThanLastSample) {
  HarmonicMeanEstimator harmonic(20);
  LastSampleEstimator last;
  for (int i = 0; i < 19; ++i) {
    harmonic.observe(2.0);
    last.observe(2.0);
  }
  harmonic.observe(50.0);  // spike
  last.observe(50.0);
  EXPECT_LT(harmonic.estimate(), 3.0);
  EXPECT_DOUBLE_EQ(last.estimate(), 50.0);
}

}  // namespace
}  // namespace eacs::net
