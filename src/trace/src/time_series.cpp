#include "eacs/trace/time_series.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace eacs::trace {

TimeSeries::TimeSeries(std::vector<TimePoint> samples) : samples_(std::move(samples)) {
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    // NaN compares false both ways, so the order check alone would let it in.
    if (std::isnan(samples_[i].t_s)) {
      throw std::invalid_argument("TimeSeries: sample " + std::to_string(i) +
                                  " has a NaN timestamp");
    }
    if (i > 0 && samples_[i].t_s < samples_[i - 1].t_s) {
      throw std::invalid_argument("TimeSeries: sample " + std::to_string(i) +
                                  " moves back in time (timestamps must not "
                                  "decrease)");
    }
  }
}

void TimeSeries::append(double t_s, double value) {
  if (std::isnan(t_s)) {
    throw std::invalid_argument("TimeSeries::append: t_s is NaN");
  }
  if (!samples_.empty() && t_s < samples_.back().t_s) {
    throw std::invalid_argument("TimeSeries::append: time must not go backwards");
  }
  samples_.push_back({t_s, value});
}

double TimeSeries::start_time() const {
  if (samples_.empty()) throw std::logic_error("TimeSeries: empty");
  return samples_.front().t_s;
}

double TimeSeries::end_time() const {
  if (samples_.empty()) throw std::logic_error("TimeSeries: empty");
  return samples_.back().t_s;
}

std::size_t TimeSeries::first_after(double t_s) const {
  if (samples_.empty()) throw std::logic_error("TimeSeries: empty");
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t_s,
      [](double t, const TimePoint& p) { return t < p.t_s; });
  return static_cast<std::size_t>(std::distance(samples_.begin(), it));
}

std::size_t TimeSeries::index_at_or_before(double t_s) const {
  // First sample with t > t_s, then step back.
  const std::size_t next = first_after(t_s);
  return next == 0 ? 0 : next - 1;
}

TimeSeries::Lookup TimeSeries::lookup(double t_s) const {
  const std::size_t next = first_after(t_s);
  return {next, linear_at(t_s, next)};
}

double TimeSeries::linear_at(double t_s, std::size_t next) const {
  return linear_value_from(next == 0 ? 0 : next - 1, t_s);
}

double TimeSeries::linear_value_from(std::size_t i, double t_s) const {
  if (t_s < samples_.front().t_s) return samples_.front().value;
  if (i + 1 >= samples_.size()) return samples_.back().value;
  const TimePoint& a = samples_[i];
  const TimePoint& b = samples_[i + 1];
  // Zero-width breakpoints (duplicate timestamps) are step discontinuities;
  // index_at_or_before already resolved to the last duplicate, so `a` holds
  // the value that applies at exactly `t_s`.
  if (b.t_s <= a.t_s) return b.value;
  const double frac = (t_s - a.t_s) / (b.t_s - a.t_s);
  return a.value + frac * (b.value - a.value);
}

double TimeSeries::linear_at(double t_s) const {
  return linear_value_from(index_at_or_before(t_s), t_s);
}

double TimeSeries::integral_over(double t0, double t1) const {
  if (!(t1 >= t0)) {
    throw std::invalid_argument(
        "TimeSeries::integral_over: needs t1 >= t0, got t0 = " +
        std::to_string(t0) + ", t1 = " + std::to_string(t1));
  }
  if (t1 == t0) return 0.0;
  // Trapezoidal rule over the interpolated signal: integrate between every
  // pair of breakpoints intersected by [t0, t1].
  double total = 0.0;
  double cursor = t0;
  // One search: the first breakpoint strictly after t0, where the walk
  // starts, and the value at t0.
  const Lookup start = lookup(t0);
  double cursor_value = start.value;
  std::size_t next = start.next;
  for (; next < samples_.size(); ++next) {
    const TimePoint& p = samples_[next];
    // Strictly-greater: breakpoints exactly at t1 (including zero-width step
    // duplicates) must still update cursor_value, or a step at t1 would leak
    // the post-step value into the closing trapezoid.
    if (p.t_s > t1) break;
    total += 0.5 * (cursor_value + p.value) * (p.t_s - cursor);
    cursor = p.t_s;
    cursor_value = p.value;
  }
  // The walk stopped at the first sample with t > t1, or at the end: every
  // sample before start.next has t <= t0 <= t1, so that is the index a
  // search for t1 finds.
  const double end_value = linear_at(t1, next);
  total += 0.5 * (cursor_value + end_value) * (t1 - cursor);
  return total;
}

double TimeSeries::mean_over(double t0, double t1) const {
  if (t1 <= t0) return linear_at(t0);
  return integral_over(t0, t1) / (t1 - t0);
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& p : samples_) out.push_back(p.value);
  return out;
}

// --- TimeSeriesCursor -------------------------------------------------------

std::size_t TimeSeriesCursor::seek(double t_s) {
  const std::span<const TimePoint> s = series_->samples();
  // Empty series: delegate so the error is identical to the stateless path.
  if (s.empty()) return series_->index_at_or_before(t_s);
  // Walk from the cached hint; if the target is far, fall back to the full
  // binary search so a pathological query sequence stays O(log N) per call.
  constexpr std::size_t kMaxLinearSteps = 32;
  std::size_t i = std::min(hint_, s.size() - 1);
  std::size_t steps = 0;
  while (i + 1 < s.size() && s[i + 1].t_s <= t_s) {
    if (++steps > kMaxLinearSteps) return hint_ = series_->index_at_or_before(t_s);
    ++i;
  }
  while (i > 0 && s[i].t_s > t_s) {
    if (++steps > kMaxLinearSteps) return hint_ = series_->index_at_or_before(t_s);
    --i;
  }
  // Loop invariants leave i as the last index with t <= t_s (or 0 when t_s
  // precedes the series) — exactly TimeSeries::index_at_or_before(t_s),
  // including the last-duplicate-wins rule at zero-width step edges.
  return hint_ = i;
}

double TimeSeriesCursor::linear_at(double t_s) {
  return series_->linear_value_from(seek(t_s), t_s);
}

}  // namespace eacs::trace
