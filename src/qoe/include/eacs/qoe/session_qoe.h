#pragma once
// Session-level QoE aggregation (extension).
//
// The paper scores sessions as the mean per-task QoE. Streaming QoE
// research (the P.1203 family, Liu et al. TBC'15 — the paper's ref [25])
// shows session judgments deviate from plain means: startup delay hurts,
// stall *events* hurt beyond their total duration, the ending matters more
// than the beginning (recency), and quality oscillation is a separate
// annoyance. This aggregator implements those effects on top of the
// per-task qualities so the evaluation can be re-scored under a stricter
// session model (bench_ablation_session_qoe checks whether the paper's
// algorithm ranking survives — it does). The aggregation weights are the
// named constants below, which no run varies.

#include <vector>

#include "eacs/player/player.h"
#include "eacs/qoe/model.h"

namespace eacs::qoe {

// Session-aggregation weights.
/// MOS per second of startup delay.
inline constexpr double kStartupPenaltyPerS = 0.05;
inline constexpr double kStartupPenaltyCap = 0.5;  ///< max startup deduction
/// MOS per stall event (on top of the per-task duration term).
inline constexpr double kStallEventPenalty = 0.15;
inline constexpr double kStallEventCap = 1.0;
/// Exponential recency weighting: a segment this far from the end counts
/// half as much.
inline constexpr double kRecencyHalfLifeS = 60.0;
/// MOS at switch_rate = 1 (every segment switches).
inline constexpr double kOscillationPenalty = 0.3;

/// Breakdown of a session score.
struct SessionQoeBreakdown {
  double base_mos = 0.0;        ///< recency-weighted mean per-task quality
  double startup_penalty = 0.0;
  double stall_penalty = 0.0;
  double oscillation_penalty = 0.0;
  double mos = 0.0;             ///< final, clamped to [1, 5]
};

/// Scores a playback run. Per-task qualities come from `model` (vibration
/// and rebuffer impairments included); the aggregator layers the
/// session-level effects on top.
SessionQoeBreakdown session_qoe(const player::PlaybackResult& result,
                                const QoeModel& model);

}  // namespace eacs::qoe
