// Property suite: the trace-driven downloader is the exact inverse of the
// throughput trace's time-integral.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "eacs/net/downloader.h"
#include "eacs/util/rng.h"

namespace eacs::net {
namespace {

trace::TimeSeries random_trace(std::uint64_t seed) {
  eacs::Rng rng(seed);
  trace::TimeSeries series;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    series.append(t, rng.uniform(0.5, 30.0));
    t += rng.uniform(0.2, 2.0);
  }
  return series;
}

class DownloaderProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DownloaderProperties, IntegralInverseDuality) {
  // integral_over(start, end) == size for every completed download.
  const auto series = random_trace(GetParam());
  const SegmentDownloader downloader(series);
  eacs::Rng rng(GetParam() ^ 0xD0);
  for (int trial = 0; trial < 100; ++trial) {
    const double start = rng.uniform(0.0, series.end_time() * 0.6);
    const double size = rng.uniform(0.1, 40.0);
    const auto result = downloader.download(start, size);
    EXPECT_GT(result.end_s, start);
    EXPECT_NEAR(series.integral_over(start, result.end_s), size, 1e-6)
        << "start " << start << " size " << size;
  }
}

TEST_P(DownloaderProperties, MonotoneInSize) {
  const auto series = random_trace(GetParam());
  const SegmentDownloader downloader(series);
  eacs::Rng rng(GetParam() ^ 0xD1);
  for (int trial = 0; trial < 50; ++trial) {
    const double start = rng.uniform(0.0, series.end_time() * 0.5);
    const double small = rng.uniform(0.1, 10.0);
    const double large = small + rng.uniform(0.1, 10.0);
    EXPECT_LT(downloader.download(start, small).end_s,
              downloader.download(start, large).end_s);
  }
}

TEST_P(DownloaderProperties, ChainingIsAdditive) {
  // Downloading s1 then s2 (starting where s1 ended) lands exactly where a
  // single s1+s2 download lands.
  const auto series = random_trace(GetParam());
  const SegmentDownloader downloader(series);
  eacs::Rng rng(GetParam() ^ 0xD2);
  for (int trial = 0; trial < 50; ++trial) {
    const double start = rng.uniform(0.0, series.end_time() * 0.4);
    const double s1 = rng.uniform(0.1, 15.0);
    const double s2 = rng.uniform(0.1, 15.0);
    const auto first = downloader.download(start, s1);
    const auto second = downloader.download(first.end_s, s2);
    const auto combined = downloader.download(start, s1 + s2);
    EXPECT_NEAR(second.end_s, combined.end_s, 1e-6);
  }
}

TEST_P(DownloaderProperties, LaterStartNeverFinishesEarlier) {
  const auto series = random_trace(GetParam());
  const SegmentDownloader downloader(series);
  eacs::Rng rng(GetParam() ^ 0xD3);
  for (int trial = 0; trial < 50; ++trial) {
    const double start = rng.uniform(0.0, series.end_time() * 0.5);
    const double delta = rng.uniform(0.1, 20.0);
    const double size = rng.uniform(0.5, 20.0);
    EXPECT_LE(downloader.download(start, size).end_s,
              downloader.download(start + delta, size).end_s + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DownloaderProperties,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// --- One search per query -------------------------------------------------
//
// integral_over and download each make one binary search: the walk over the
// breakpoints starts where it finds, and integral_over takes the value at t1
// from where its walk stopped. The references below search once per lookup
// (linear_at(t0), the walk's upper_bound and linear_at(t1); linear_at(start)
// and upper_bound(start)); every result must keep their bits.

double reference_integral(const trace::TimeSeries& series, double t0, double t1) {
  if (t1 < t0) throw std::invalid_argument("reference_integral: t1 < t0");
  if (t1 == t0) return 0.0;
  const auto samples = series.samples();
  double total = 0.0;
  double cursor = t0;
  double cursor_value = series.linear_at(t0);
  auto it = std::upper_bound(samples.begin(), samples.end(), t0,
                             [](double t, const trace::TimePoint& p) { return t < p.t_s; });
  for (; it != samples.end(); ++it) {
    if (it->t_s > t1) break;
    total += 0.5 * (cursor_value + it->value) * (it->t_s - cursor);
    cursor = it->t_s;
    cursor_value = it->value;
  }
  const double end_value = series.linear_at(t1);
  total += 0.5 * (cursor_value + end_value) * (t1 - cursor);
  return total;
}

double reference_mean(const trace::TimeSeries& series, double t0, double t1) {
  if (t1 <= t0) return series.linear_at(t0);
  return reference_integral(series, t0, t1) / (t1 - t0);
}

double reference_partial(double v0, double m, double target) {
  if (std::fabs(m) < 1e-12) return target / v0;
  const double disc = v0 * v0 + 2.0 * m * target;
  const double sqrt_disc = std::sqrt(std::max(0.0, disc));
  const double root = (-v0 + sqrt_disc) / m;
  if (root >= 0.0) return root;
  return (-v0 - sqrt_disc) / m;
}

DownloadResult reference_download(const trace::TimeSeries& series, double start_s,
                                  double size_megabits) {
  DownloadResult result;
  result.start_s = start_s;
  result.size_megabits = size_megabits;
  if (size_megabits == 0.0) {
    result.end_s = start_s;
    result.mean_throughput_mbps = series.linear_at(start_s);
    return result;
  }
  double remaining = size_megabits;
  double cursor = start_s;
  double cursor_value = series.linear_at(start_s);
  const auto samples = series.samples();
  auto it = std::upper_bound(samples.begin(), samples.end(), start_s,
                             [](double t, const trace::TimePoint& p) { return t < p.t_s; });
  for (; it != samples.end(); ++it) {
    const double dt = it->t_s - cursor;
    if (dt <= 0.0) {
      cursor_value = it->value;
      continue;
    }
    const double chunk = 0.5 * (cursor_value + it->value) * dt;
    if (chunk >= remaining && chunk > 0.0) {
      const double slope = (it->value - cursor_value) / dt;
      const double x = reference_partial(cursor_value, slope, remaining);
      result.end_s = cursor + std::min(x, dt);
      result.mean_throughput_mbps = size_megabits / std::max(1e-12, result.duration_s());
      return result;
    }
    remaining -= chunk;
    cursor = it->t_s;
    cursor_value = it->value;
  }
  const double tail_rate = samples.back().value;
  result.end_s = tail_rate <= 1e-9 ? cursor + 3600.0 : cursor + remaining / tail_rate;
  result.mean_throughput_mbps = size_megabits / std::max(1e-12, result.duration_s());
  return result;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A throughput trace starting at t = 1 with zero-width steps (runs of
/// duplicate timestamps) and dead stretches, and a query time drawn from
/// before the first sample, exactly on a breakpoint, between breakpoints or
/// past the end.
struct StepTrace {
  explicit StepTrace(std::uint64_t seed) : rng(seed) {
    double t = 1.0;
    for (int i = 0; i < 120; ++i) {
      const double gap = rng.uniform(0.0, 1.0) < 0.2 ? 0.0 : rng.uniform(0.05, 2.0);
      t += gap;
      const double rate = rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(0.2, 30.0);
      series.append(t, rate);
    }
  }

  double time() {
    const auto samples = series.samples();
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.1) return rng.uniform(-2.0, 1.0);
    if (u < 0.5) {
      return samples[static_cast<std::size_t>(
                         rng.uniform_int(0, static_cast<long long>(samples.size()) - 1))]
          .t_s;
    }
    if (u < 0.6) return series.end_time() + rng.uniform(0.0, 5.0);
    return rng.uniform(0.0, series.end_time());
  }

  eacs::Rng rng;
  trace::TimeSeries series;
};

TEST(TraceWalkProperties, OneSearchMatchesASearchPerQuery) {
  std::size_t duplicate_bounds = 0;
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    StepTrace trace(seed);
    const trace::TimeSeries& series = trace.series;
    const SegmentDownloader downloader(series);
    for (int q = 0; q < 600; ++q) {
      const double a = trace.time();
      const double b = q % 10 == 0 ? a : trace.time();  // t0 == t1 included
      const double t0 = std::min(a, b);
      const double t1 = std::max(a, b);
      if (series.index_at_or_before(t0) != 0 &&
          series.at(series.index_at_or_before(t0) - 1).t_s == t0) {
        ++duplicate_bounds;
      }
      ASSERT_EQ(bits(series.integral_over(t0, t1)),
                bits(reference_integral(series, t0, t1)))
          << "seed " << seed << " [" << t0 << ", " << t1 << "]";
      ASSERT_EQ(bits(series.mean_over(t0, t1)), bits(reference_mean(series, t0, t1)))
          << "seed " << seed << " [" << t0 << ", " << t1 << "]";
      ASSERT_EQ(bits(series.mean_over(t1, t0)), bits(reference_mean(series, t1, t0)))
          << "seed " << seed << " [" << t1 << ", " << t0 << "]";
      const double size = q % 7 == 0 ? 0.0 : trace.rng.uniform(0.01, 60.0);
      const DownloadResult got = downloader.download(a, size);
      const DownloadResult want = reference_download(series, a, size);
      ASSERT_EQ(bits(got.end_s), bits(want.end_s))
          << "seed " << seed << " start " << a << " size " << size;
      ASSERT_EQ(bits(got.mean_throughput_mbps), bits(want.mean_throughput_mbps))
          << "seed " << seed << " start " << a << " size " << size;
      ASSERT_EQ(bits(got.start_s), bits(a));
      ASSERT_EQ(bits(got.size_megabits), bits(size));
    }
  }
  EXPECT_GT(duplicate_bounds, 100U);  // queries landed on zero-width steps
}

}  // namespace
}  // namespace eacs::net
