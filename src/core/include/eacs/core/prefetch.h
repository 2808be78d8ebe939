#pragma once
// Signal-aware download scheduling (extension; the paper cites
// prefetch-based energy optimisation [7] as complementary work).
//
// Bitrate selection decides *what* to download; this module decides *when*.
// Radio energy per byte varies with signal strength (Fig. 1(a)), so a
// player that knows (or predicts) the signal trajectory can defer
// downloads through weak-signal valleys and batch them into strong-signal
// windows — bounded by the buffer: every segment must arrive before its
// playback deadline, and no earlier than the buffer cap allows.
//
// Given a fixed bitrate plan, a signal trace and a throughput trace, the
// scheduler solves the download-timing problem by dynamic programming over
// a discrete slot grid and reports the radio energy next to the ASAP
// (download-as-early-as-possible, i.e. the standard player behaviour)
// baseline. The buffer cap is the one setting a run varies; the slot grid and
// the startup latency are the named constants PrefetchScheduler::k*.

#include <vector>

#include "eacs/media/manifest.h"
#include "eacs/net/downloader.h"
#include "eacs/power/model.h"
#include "eacs/trace/time_series.h"

namespace eacs::core {

/// One scheduled download.
struct ScheduledDownload {
  std::size_t segment_index = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double radio_energy_j = 0.0;
  double deadline_s = 0.0;   ///< playback time of the segment
  bool late = false;         ///< completion after the deadline (stall)
};

/// A complete schedule.
struct PrefetchPlan {
  std::vector<ScheduledDownload> downloads;
  double radio_energy_j = 0.0;
  double stall_s = 0.0;  ///< total lateness across segments

  bool feasible() const noexcept { return stall_s <= 0.0; }
};

/// Schedules the downloads of a fixed bitrate plan.
class PrefetchScheduler {
 public:
  static constexpr double kSlotS = 1.0;  ///< DP time granularity
  /// Playback begins this long after t=0.
  static constexpr double kStartupLatencyS = 2.0;

  /// `levels` must have one entry per manifest segment; `buffer_cap_s` is the
  /// max buffered media (the player's B). Throws std::invalid_argument for a
  /// wrong plan length or, naming `buffer_cap_s`, unless the cap is finite
  /// and > 0.
  PrefetchScheduler(const media::VideoManifest& manifest,
                    std::vector<std::size_t> levels,
                    const trace::TimeSeries& signal_dbm,
                    const trace::TimeSeries& throughput_mbps,
                    const power::PowerModel& power_model,
                    double buffer_cap_s = 30.0);

  /// ASAP baseline: start each download as early as the buffer cap and the
  /// previous download allow (what the standard player does).
  PrefetchPlan asap() const;

  /// Energy-optimal schedule via DP over start slots. Falls back to ASAP
  /// timing for any segment with no feasible deferred slot.
  PrefetchPlan optimize() const;

 private:
  struct Window {
    double earliest_start = 0.0;  ///< buffer-cap constraint
    double deadline = 0.0;        ///< playback deadline for completion
  };
  Window window_of(std::size_t segment) const;
  ScheduledDownload price_download(std::size_t segment, double start_s) const;

  const media::VideoManifest& manifest_;
  std::vector<std::size_t> levels_;
  const trace::TimeSeries& signal_;
  net::SegmentDownloader downloader_;
  power::PowerModel power_;  // by value: callers may pass a temporary
  double buffer_cap_s_;
};

}  // namespace eacs::core
