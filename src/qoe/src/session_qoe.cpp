#include "eacs/qoe/session_qoe.h"

#include <algorithm>
#include <cmath>

namespace eacs::qoe {

SessionQoeBreakdown session_qoe(const player::PlaybackResult& result,
                                const QoeModel& model) {
  SessionQoeBreakdown breakdown;
  if (result.tasks.empty()) {
    breakdown.mos = model.params().mos_min;
    return breakdown;
  }

  // Recency-weighted mean of per-task quality: weight decays exponentially
  // with media-time distance from the session end.
  double media_duration = 0.0;
  for (const auto& task : result.tasks) media_duration += task.duration_s;

  const double lambda = std::log(2.0) / kRecencyHalfLifeS;
  double weighted = 0.0;
  double weight_sum = 0.0;
  double media_cursor = 0.0;
  double prev_bitrate = 0.0;
  for (const auto& task : result.tasks) {
    SegmentContext context;
    context.bitrate_mbps = task.bitrate_mbps;
    context.vibration = task.vibration;
    context.prev_bitrate_mbps = prev_bitrate;
    context.rebuffer_s = task.rebuffer_s;
    const double quality = model.segment_qoe(context);
    prev_bitrate = task.bitrate_mbps;

    const double distance_from_end =
        media_duration - (media_cursor + task.duration_s / 2.0);
    const double weight = task.duration_s * std::exp(-lambda * distance_from_end);
    weighted += quality * weight;
    weight_sum += weight;
    media_cursor += task.duration_s;
  }
  breakdown.base_mos = weight_sum > 0.0 ? weighted / weight_sum : 0.0;

  breakdown.startup_penalty =
      std::min(kStartupPenaltyCap,
               kStartupPenaltyPerS * std::max(0.0, result.startup_delay_s));
  breakdown.stall_penalty =
      std::min(kStallEventCap,
               kStallEventPenalty * static_cast<double>(result.rebuffer_events));
  const double switch_rate =
      result.tasks.size() > 1
          ? static_cast<double>(result.switch_count) /
                static_cast<double>(result.tasks.size() - 1)
          : 0.0;
  breakdown.oscillation_penalty = kOscillationPenalty * switch_rate;

  breakdown.mos = std::clamp(breakdown.base_mos - breakdown.startup_penalty -
                                 breakdown.stall_penalty -
                                 breakdown.oscillation_penalty,
                             model.params().mos_min, model.params().mos_max);
  return breakdown;
}

}  // namespace eacs::qoe
