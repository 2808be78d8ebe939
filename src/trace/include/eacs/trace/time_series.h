#pragma once
// Time-indexed scalar series: the common representation for throughput traces
// (Mbps) and signal-strength traces (dBm), whether synthetic or loaded from
// CSV recordings.

#include <cstddef>
#include <span>
#include <vector>

namespace eacs::trace {

/// One (time, value) sample.
struct TimePoint {
  double t_s = 0.0;
  double value = 0.0;
};

/// Monotonic time series with linear interpolation lookups.
///
/// Timestamps must be non-decreasing and not NaN; -inf and +inf order like
/// any other time. Duplicate (zero-width) timestamps are allowed and
/// represent a step discontinuity: at exactly the shared time the *last*
/// duplicate's value wins, which is how outage edges and real CSV recordings
/// with repeated timestamps are modelled.
///
/// Every series the class can hold is therefore sorted, so each query makes
/// one binary search: linear_at and lookup search once, and integral_over
/// searches for t0 and takes the value at t1 from where its walk over the
/// breakpoints stopped.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Builds from samples; throws std::invalid_argument, naming the sample,
  /// if a timestamp is NaN or decreases.
  explicit TimeSeries(std::vector<TimePoint> samples);

  /// Appends a sample; throws std::invalid_argument if `t_s` is NaN or moves
  /// backwards in time.
  void append(double t_s, double value);

  bool empty() const noexcept { return samples_.empty(); }
  std::size_t size() const noexcept { return samples_.size(); }
  const TimePoint& at(std::size_t i) const { return samples_.at(i); }
  std::span<const TimePoint> samples() const noexcept { return samples_; }

  double start_time() const;
  double end_time() const;

  /// Linear interpolation between neighbouring samples; clamps outside the
  /// covered range.
  double linear_at(double t_s) const;

  /// What a walk over the breakpoints after a time starts from.
  struct Lookup {
    std::size_t next = 0;  ///< first sample with t > t_s; size() when none
    double value = 0.0;    ///< linear_at(t_s)
  };

  /// The first breakpoint after `t_s` and the value at `t_s`, from one
  /// binary search: the start of the walks in integral_over and
  /// net::SegmentDownloader::download. Throws std::logic_error on an empty
  /// series.
  Lookup lookup(double t_s) const;

  /// linear_at(t_s), bit for bit, given `next`, the index of the first
  /// sample with t > t_s, without a search: a walk that stopped there closes
  /// with it.
  double linear_at(double t_s, std::size_t next) const;

  /// Mean of `linear_at` over [t0, t1] via trapezoidal integration;
  /// linear_at(t0) when t1 <= t0.
  double mean_over(double t0, double t1) const;

  /// Time-integral of `linear_at` over [t0, t1] (e.g. Mbps * s = Mbits).
  /// Throws std::invalid_argument unless t1 >= t0 (so a NaN bound throws).
  double integral_over(double t0, double t1) const;

  /// All values, in time order.
  std::vector<double> values() const;

  /// Index of the last sample with t <= `t_s` (0 before the first sample;
  /// with duplicate timestamps, the *last* duplicate — the right-continuous
  /// step contract). Throws std::logic_error on an empty series. This is the
  /// index every lookup (linear_at / TimeSeriesCursor) resolves through,
  /// exposed so cursor implementations can certify against it.
  std::size_t index_at_or_before(double t_s) const;

 private:
  friend class TimeSeriesCursor;

  /// Index of the first sample with t > `t_s` (size() when none): the one
  /// binary search every lookup makes. Throws std::logic_error when empty.
  std::size_t first_after(double t_s) const;

  /// Interpolated value given `index == index_at_or_before(t_s)`. Shared by
  /// linear_at and TimeSeriesCursor so the two paths are the same arithmetic
  /// (bit-identical by construction, not by accident).
  double linear_value_from(std::size_t index, double t_s) const;

  std::vector<TimePoint> samples_;
};

/// Stateful lookup cursor over one TimeSeries.
///
/// The stateless lookups binary-search the whole series on every call; the
/// playback engines query traces at points that move almost monotonically
/// (the session clock), so a cursor that walks from the previously resolved
/// index turns per-sample O(log N) searches into amortised O(1) steps.
///
/// Contract (certified by tests/trace/time_series_cursor_test.cpp and the
/// differential harness):
///  * linear_at returns values bitwise identical to TimeSeries::linear_at
///    for ANY query sequence — forward, backward or repeated times,
///    including duplicate-timestamp step edges (the lookup resolves to the
///    last duplicate: right-continuous, last wins);
///  * the cursor never mutates the series; many cursors may share one;
///  * appending to the series keeps the cursor valid (the resolved prefix is
///    immutable); destroying or moving the series invalidates it — the
///    cursor holds an unowned pointer and must not outlive the series.
class TimeSeriesCursor {
 public:
  /// `series` is unowned and must outlive the cursor.
  explicit TimeSeriesCursor(const TimeSeries& series) noexcept
      : series_(&series) {}

  /// Linear interpolation between neighbouring samples; clamps outside the
  /// covered range. Bitwise identical to TimeSeries::linear_at.
  double linear_at(double t_s);

 private:
  /// Resolves index_at_or_before(t_s) by walking from the cached hint,
  /// falling back to the full binary search when the target is far away.
  std::size_t seek(double t_s);

  const TimeSeries* series_;
  std::size_t hint_ = 0;
};

}  // namespace eacs::trace
