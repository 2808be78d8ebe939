#include "eacs/net/downloader.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace eacs::net {
namespace {

// Solves for x >= 0 such that v0*x + 0.5*m*x^2 == target, where throughput is
// v(t) = v0 + m*t over the interval and target > 0. Assumes a root exists
// (caller checked the full-interval integral exceeds target).
double solve_partial_interval(double v0, double m, double target) {
  if (std::fabs(m) < 1e-12) {
    return target / v0;
  }
  // 0.5*m*x^2 + v0*x - target = 0.
  const double disc = v0 * v0 + 2.0 * m * target;
  const double sqrt_disc = std::sqrt(std::max(0.0, disc));
  // The physically meaningful (smallest positive) root.
  const double root = (-v0 + sqrt_disc) / m;
  if (root >= 0.0) return root;
  return (-v0 - sqrt_disc) / m;
}

}  // namespace

SegmentDownloader::SegmentDownloader(const trace::TimeSeries& throughput_mbps)
    : throughput_(std::make_shared<trace::TimeSeries>(throughput_mbps)) {
  validate();
}

SegmentDownloader::SegmentDownloader(trace::TimeSeries&& throughput_mbps)
    : throughput_(std::make_shared<trace::TimeSeries>(std::move(throughput_mbps))) {
  validate();
}

SegmentDownloader::SegmentDownloader(std::shared_ptr<const trace::TimeSeries> throughput_mbps)
    : throughput_(std::move(throughput_mbps)) {
  if (!throughput_) {
    throw std::invalid_argument("SegmentDownloader: null throughput trace");
  }
  validate();
}

void SegmentDownloader::validate() const {
  if (throughput_->empty()) {
    throw std::invalid_argument("SegmentDownloader: empty throughput trace");
  }
  const auto samples = throughput_->samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // NaN and +inf pass a `< 0` check; a download over them ends at NaN.
    if (!(std::isfinite(samples[i].value) && samples[i].value >= 0.0)) {
      throw std::invalid_argument("SegmentDownloader: throughput sample " +
                                  std::to_string(i) +
                                  " must be finite and >= 0");
    }
  }
}

double SegmentDownloader::bandwidth_at(double t_s) const {
  return throughput_->linear_at(t_s);
}

DownloadResult SegmentDownloader::download(double start_s, double size_megabits) const {
  if (!(size_megabits >= 0.0)) {
    throw std::invalid_argument("SegmentDownloader: size must be >= 0 and not NaN");
  }
  if (std::isnan(start_s)) {
    throw std::invalid_argument("SegmentDownloader: start is NaN");
  }
  DownloadResult result;
  result.start_s = start_s;
  result.size_megabits = size_megabits;
  if (size_megabits == 0.0) {
    result.end_s = start_s;
    result.mean_throughput_mbps = bandwidth_at(start_s);
    return result;
  }

  double remaining = size_megabits;
  double cursor = start_s;
  // Walk the trace breakpoints after the start time, from one binary search
  // for the first of them and the rate at the start.
  const trace::TimeSeries::Lookup start = throughput_->lookup(start_s);
  double cursor_value = start.value;
  const auto samples = throughput_->samples();
  for (auto it = samples.begin() + static_cast<std::ptrdiff_t>(start.next);
       it != samples.end(); ++it) {
    const auto& point = *it;
    const double dt = point.t_s - cursor;
    if (dt <= 0.0) {
      // Zero-width breakpoint (duplicate timestamp): a step discontinuity.
      // No bytes move in zero time; adopt the post-step rate and continue.
      cursor_value = point.value;
      continue;
    }
    const double chunk = 0.5 * (cursor_value + point.value) * dt;
    if (chunk >= remaining && chunk > 0.0) {
      const double slope = (point.value - cursor_value) / dt;
      const double x = solve_partial_interval(cursor_value, slope, remaining);
      result.end_s = cursor + std::min(x, dt);
      result.mean_throughput_mbps = size_megabits / std::max(1e-12, result.duration_s());
      return result;
    }
    remaining -= chunk;
    cursor = point.t_s;
    cursor_value = point.value;
  }

  // Past the end of the trace: hold the last value.
  const double tail_rate = samples.back().value;
  if (tail_rate <= 1e-9) {
    // Dead link at trace end: report a very long stall rather than dividing
    // by zero; the player treats this as a session-ending condition.
    result.end_s = cursor + 3600.0;
  } else {
    result.end_s = cursor + remaining / tail_rate;
  }
  result.mean_throughput_mbps = size_megabits / std::max(1e-12, result.duration_s());
  return result;
}

}  // namespace eacs::net
