#include "eacs/power/rrc.h"

#include <algorithm>
#include <stdexcept>

namespace eacs::power {

RrcSimulator::RrcSimulator(RrcConfig config) : config_(config) {
  if (config_.inactivity_s < 0.0 || config_.short_drx_s < 0.0 ||
      config_.long_drx_s < 0.0) {
    throw std::invalid_argument("RrcSimulator: negative timer");
  }
}

RrcBreakdown RrcSimulator::analyze(std::vector<TransferBurst> bursts,
                                   double session_end_s) const {
  for (const auto& burst : bursts) {
    if (burst.end_s < burst.start_s || burst.start_s < 0.0) {
      throw std::invalid_argument("RrcSimulator: malformed burst");
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
  if (!merged.empty() && session_end_s < merged.back().end_s) {
    throw std::invalid_argument("RrcSimulator: session ends before last burst");
  }

  RrcBreakdown out;
  const double tail_span =
      config_.inactivity_s + config_.short_drx_s + config_.long_drx_s;

  // The machine starts IDLE at t = 0.
  double cursor = 0.0;
  bool radio_warm = false;  // still within a previous burst's tail at cursor?

  // Charges the gap [from, to] given the tail budget carried into it.
  const auto charge_gap = [&](double from, double to) {
    double remaining = to - from;
    if (remaining <= 0.0) return;
    // Walk the tail phases in order.
    const double phases[3][2] = {
        {config_.inactivity_s, config_.connected_tail_w},
        {config_.short_drx_s, config_.short_drx_w},
        {config_.long_drx_s, config_.long_drx_w},
    };
    double offset = 0.0;  // how far into the tail the gap starts (0 here:
                          // every gap starts a fresh tail because a burst
                          // just ended)
    for (const auto& [span, watts] : phases) {
      const double available = std::max(0.0, span - offset);
      offset = std::max(0.0, offset - span);
      const double used = std::min(available, remaining);
      if (used > 0.0) {
        out.tail_time_s += used;
        out.tail_energy_j += watts * used;
        remaining -= used;
      }
      if (remaining <= 0.0) break;
    }
    if (remaining > 0.0) {
      out.idle_time_s += remaining;
      out.idle_energy_j += config_.idle_w * remaining;
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
        out.idle_energy_j += config_.idle_w * (gap_end - gap_start);
      }
    }
    if (!radio_warm) {
      ++out.promotions;
      out.promotion_energy_j += config_.promotion_energy_j;
    }
    const double active = burst.end_s - burst.start_s;
    out.active_time_s += active;
    out.active_energy_j += config_.connected_active_w * active;
    radio_warm = true;
    cursor = burst.end_s;
  }

  // Trailing gap to the session end.
  if (session_end_s > cursor) {
    if (radio_warm) {
      charge_gap(cursor, session_end_s);
    } else {
      out.idle_time_s += session_end_s - cursor;
      out.idle_energy_j += config_.idle_w * (session_end_s - cursor);
    }
  }
  return out;
}

}  // namespace eacs::power
