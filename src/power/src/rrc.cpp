#include "eacs/power/rrc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace eacs::power {

RrcBreakdown rrc_breakdown(std::vector<TransferBurst> bursts, double session_end_s) {
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const TransferBurst& burst = bursts[i];
    if (!(burst.start_s >= 0.0 && burst.end_s >= burst.start_s &&
          std::isfinite(burst.end_s))) {
      throw std::invalid_argument("rrc_breakdown: burst " + std::to_string(i) +
                                  " must satisfy 0 <= start_s <= end_s < inf");
    }
  }
  std::sort(bursts.begin(), bursts.end(),
            [](const TransferBurst& a, const TransferBurst& b) {
              return a.start_s < b.start_s;
            });
  // Merge overlapping / touching bursts: the radio does not distinguish
  // back-to-back requests.
  std::vector<TransferBurst> merged;
  for (const auto& burst : bursts) {
    if (!merged.empty() && burst.start_s <= merged.back().end_s) {
      merged.back().end_s = std::max(merged.back().end_s, burst.end_s);
    } else {
      merged.push_back(burst);
    }
  }
  const double last_end = merged.empty() ? 0.0 : merged.back().end_s;
  if (!(std::isfinite(session_end_s) && session_end_s >= last_end)) {
    throw std::invalid_argument(
        "rrc_breakdown: session_end_s must be finite and no earlier than the "
        "last burst's end (or 0)");
  }

  RrcBreakdown out;
  constexpr double tail_span = kRrcInactivityS + kRrcShortDrxS + kRrcLongDrxS;

  // The machine starts IDLE at t = 0.
  double cursor = 0.0;
  bool radio_warm = false;  // still within a previous burst's tail at cursor?

  // Charges the gap [from, to]. Every gap starts a fresh tail because a
  // burst just ended, so the tail phases are walked in order from their start.
  const auto charge_gap = [&](double from, double to) {
    double remaining = to - from;
    if (remaining <= 0.0) return;
    constexpr double phases[3][2] = {
        {kRrcInactivityS, kRrcConnectedTailW},
        {kRrcShortDrxS, kRrcShortDrxW},
        {kRrcLongDrxS, kRrcLongDrxW},
    };
    for (const auto& [span, watts] : phases) {
      const double used = std::min(span, remaining);
      if (used > 0.0) {
        out.tail_time_s += used;
        out.tail_energy_j += watts * used;
        remaining -= used;
      }
      if (remaining <= 0.0) break;
    }
    if (remaining > 0.0) {
      out.idle_time_s += remaining;
      out.idle_energy_j += kRrcIdleW * remaining;
    }
  };

  for (const auto& burst : merged) {
    const double gap_start = cursor;
    const double gap_end = burst.start_s;
    if (gap_end > gap_start) {
      if (radio_warm) {
        charge_gap(gap_start, gap_end);
        // Did the tail fully elapse during the gap? Then the radio dropped
        // to IDLE and this burst pays a promotion.
        if (gap_end - gap_start >= tail_span) {
          radio_warm = false;
        }
      } else {
        out.idle_time_s += gap_end - gap_start;
        out.idle_energy_j += kRrcIdleW * (gap_end - gap_start);
      }
    }
    if (!radio_warm) {
      ++out.promotions;
      out.promotion_energy_j += kRrcPromotionEnergyJ;
    }
    const double active = burst.end_s - burst.start_s;
    out.active_time_s += active;
    out.active_energy_j += kRrcConnectedActiveW * active;
    radio_warm = true;
    cursor = burst.end_s;
  }

  // Trailing gap to the session end.
  if (session_end_s > cursor) {
    if (radio_warm) {
      charge_gap(cursor, session_end_s);
    } else {
      out.idle_time_s += session_end_s - cursor;
      out.idle_energy_j += kRrcIdleW * (session_end_s - cursor);
    }
  }
  return out;
}

}  // namespace eacs::power
