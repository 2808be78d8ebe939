#pragma once
// Trace-driven segment download simulation.
//
// Given a throughput trace (Mbps over time), computes when a download of a
// given size finishes if started at a given instant — the inverse of the
// trace's time-integral. This is the primitive the player simulator uses to
// replay DASH sessions against recorded or synthetic network traces.

#include <memory>

#include "eacs/trace/time_series.h"

namespace eacs::net {

/// Outcome of one simulated transfer.
struct DownloadResult {
  double start_s = 0.0;
  double end_s = 0.0;
  double size_megabits = 0.0;
  /// Effective mean throughput over the transfer (size / duration).
  double mean_throughput_mbps = 0.0;

  double duration_s() const noexcept { return end_s - start_s; }
};

/// Simulates transfers against a fixed throughput trace.
class SegmentDownloader {
 public:
  /// The trace must be non-empty, with every rate finite and >= 0
  /// (std::invalid_argument, naming the sample, otherwise). Beyond its end
  /// the last sample's value is held (the session generators append enough
  /// margin that this is rare).
  /// Duplicate (zero-width) breakpoints — step discontinuities, e.g. outage
  /// edges injected by net::FaultInjector or repeated timestamps in recorded
  /// CSV traces — are tolerated.
  ///
  /// This overload copies the trace (safe to pass a temporary).
  explicit SegmentDownloader(const trace::TimeSeries& throughput_mbps);

  /// Owning move: adopts the trace without copying it.
  explicit SegmentDownloader(trace::TimeSeries&& throughput_mbps);

  /// Shares an immutable trace. Many downloaders (e.g. one per sweep cell)
  /// can reference the same samples with no per-instance copy. Throws
  /// std::invalid_argument if the pointer is null or the trace invalid.
  explicit SegmentDownloader(std::shared_ptr<const trace::TimeSeries> throughput_mbps);

  /// Computes the completion of a `size_megabits` transfer starting at
  /// `start_s`, with one binary search over the trace. Throws
  /// std::invalid_argument for a negative or NaN size and a NaN start.
  DownloadResult download(double start_s, double size_megabits) const;

  /// Instantaneous available bandwidth at `t_s` (linear interpolation).
  ///
  /// At a step discontinuity — duplicate timestamps t in the trace — the
  /// lookup resolves to the *last* sample at t, so bandwidth_at(t) returns
  /// the post-step (right-hand) value: the signal is right-continuous. With
  /// k >= 2 samples at the same t, the intermediate duplicates are
  /// unobservable; only the final one defines the value at t. Before the
  /// first sample the first value is held, beyond the last the last.
  double bandwidth_at(double t_s) const;

  const trace::TimeSeries& trace() const noexcept { return *throughput_; }

 private:
  void validate() const;

  std::shared_ptr<const trace::TimeSeries> throughput_;
};

/// Non-owning view of `series` as a shared_ptr (the aliasing constructor with
/// an empty control block). For handing a long-lived trace — e.g. one owned
/// by a SessionTraces that outlives every per-cell run — to the sharing
/// SegmentDownloader constructor without a copy or a heap allocation. The
/// caller is responsible for the series outliving every user of the view.
inline std::shared_ptr<const trace::TimeSeries> borrow_trace(
    const trace::TimeSeries& series) noexcept {
  return std::shared_ptr<const trace::TimeSeries>(
      std::shared_ptr<const trace::TimeSeries>{}, &series);
}

}  // namespace eacs::net
