#include "eacs/core/prefetch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "eacs/net/downloader.h"

namespace eacs::core {

PrefetchScheduler::PrefetchScheduler(const media::VideoManifest& manifest,
                                     std::vector<std::size_t> levels,
                                     const trace::TimeSeries& signal_dbm,
                                     const trace::TimeSeries& throughput_mbps,
                                     const power::PowerModel& power_model,
                                     double buffer_cap_s)
    : manifest_(manifest),
      levels_(std::move(levels)),
      signal_(signal_dbm),
      downloader_(throughput_mbps),
      power_(power_model),
      buffer_cap_s_(buffer_cap_s) {
  if (levels_.size() != manifest_.num_segments()) {
    throw std::invalid_argument("PrefetchScheduler: one level per segment required");
  }
  // NaN or +inf would reach the slot count's size_t cast in optimize().
  if (!(std::isfinite(buffer_cap_s_) && buffer_cap_s_ > 0.0)) {
    throw std::invalid_argument(
        "PrefetchScheduler: buffer_cap_s must be finite and > 0");
  }
}

PrefetchScheduler::Window PrefetchScheduler::window_of(std::size_t segment) const {
  Window window;
  const double d = manifest_.segment_duration_s();
  // Segment i plays at startup + i*D; it must be complete by then.
  window.deadline = kStartupLatencyS + static_cast<double>(segment) * d;
  // Completing it buffers media to (i+1)*D ahead of a play head at
  // (t - startup); the buffer cap forbids completing earlier than:
  window.earliest_start = std::max(
      0.0, kStartupLatencyS + static_cast<double>(segment + 1) * d - buffer_cap_s_);
  return window;
}

ScheduledDownload PrefetchScheduler::price_download(std::size_t segment,
                                                    double start_s) const {
  const double size_megabits = manifest_.segment_size_megabits(segment,
                                                               levels_[segment]);
  const auto transfer = downloader_.download(start_s, size_megabits);
  ScheduledDownload download;
  download.segment_index = segment;
  download.start_s = start_s;
  download.end_s = transfer.end_s;
  const double mean_signal =
      transfer.duration_s() > 0.0
          ? signal_.mean_over(transfer.start_s, transfer.end_s)
          : signal_.linear_at(transfer.start_s);
  download.radio_energy_j = power_.download_energy(size_megabits / 8.0, mean_signal);
  download.deadline_s = window_of(segment).deadline;
  download.late = download.end_s > download.deadline_s + 1e-9;
  return download;
}

PrefetchPlan PrefetchScheduler::asap() const {
  PrefetchPlan plan;
  double free_at = 0.0;
  for (std::size_t segment = 0; segment < levels_.size(); ++segment) {
    const Window window = window_of(segment);
    const double start = std::max(free_at, window.earliest_start);
    ScheduledDownload download = price_download(segment, start);
    free_at = download.end_s;
    plan.radio_energy_j += download.radio_energy_j;
    if (download.late) plan.stall_s += download.end_s - download.deadline_s;
    plan.downloads.push_back(std::move(download));
  }
  return plan;
}

PrefetchPlan PrefetchScheduler::optimize() const {
  // DP over "downloader free at slot" states. dp[slot] = min radio energy
  // with all previous segments scheduled and the link free at slot*kSlotS.
  const double d = manifest_.segment_duration_s();
  const double horizon = kStartupLatencyS +
                         static_cast<double>(levels_.size()) * d + buffer_cap_s_;
  const auto num_slots = static_cast<std::size_t>(horizon / kSlotS) + 2;
  constexpr double kInfinity = std::numeric_limits<double>::infinity();

  // States are bucketed by completion slot but carry the *exact* free time
  // of their best path: rounding completion times onto the grid would push
  // chained downloads later than the real link allows and lose deadline
  // slack ASAP still has.
  struct State {
    double energy = kInfinity;
    double free_at = 0.0;  // exact time the link frees up on the best path
    // Back-pointers: chosen start per segment reached through this state.
    std::vector<double> starts;
  };
  std::vector<State> dp(num_slots);
  dp[0].energy = 0.0;

  const auto bucket_of = [&](double t) {
    return std::min(num_slots - 1,
                    static_cast<std::size_t>(t / kSlotS));
  };

  const auto relax = [&](std::vector<State>& next, const State& from,
                         std::size_t segment, double start, bool allow_late) {
    const ScheduledDownload download = price_download(segment, start);
    if (download.late && !allow_late) return false;
    const double total = from.energy + download.radio_energy_j;
    State& slot_state = next[bucket_of(download.end_s)];
    if (total < slot_state.energy ||
        (total == slot_state.energy && download.end_s < slot_state.free_at)) {
      slot_state.energy = total;
      slot_state.free_at = download.end_s;
      slot_state.starts = from.starts;
      slot_state.starts.push_back(start);
    }
    return !download.late;
  };

  for (std::size_t segment = 0; segment < levels_.size(); ++segment) {
    const Window window = window_of(segment);
    std::vector<State> next(num_slots);
    bool any_feasible = false;

    for (std::size_t slot = 0; slot < num_slots; ++slot) {
      if (dp[slot].energy == kInfinity) continue;
      // Candidate starts: the exact earliest point (ASAP is always in the
      // search space), then later slot-grid offsets up to the deadline.
      const double first = std::max(dp[slot].free_at, window.earliest_start);
      for (double start = first; start <= window.deadline + 1e-9;
           start += kSlotS) {
        const bool on_time =
            relax(next, dp[slot], segment, start, /*allow_late=*/false);
        if (!on_time) break;  // later starts are only later
        any_feasible = true;
      }
    }

    if (!any_feasible) {
      // Link too slow for the deadline whatever we do: continue ASAP from
      // the cheapest reachable state (accepting the stall).
      std::size_t best_slot = 0;
      for (std::size_t slot = 0; slot < num_slots; ++slot) {
        if (dp[slot].energy < dp[best_slot].energy) best_slot = slot;
      }
      const double start = std::max(dp[best_slot].free_at, window.earliest_start);
      relax(next, dp[best_slot], segment, start, /*allow_late=*/true);
    }
    dp.swap(next);
  }

  // Best terminal state.
  std::size_t best = 0;
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    if (dp[slot].energy < dp[best].energy) best = slot;
  }
  if (dp[best].energy == kInfinity) return asap();  // defensive

  PrefetchPlan plan;
  for (std::size_t segment = 0; segment < levels_.size(); ++segment) {
    ScheduledDownload download =
        price_download(segment, dp[best].starts[segment]);
    plan.radio_energy_j += download.radio_energy_j;
    if (download.late) plan.stall_s += download.end_s - download.deadline_s;
    plan.downloads.push_back(std::move(download));
  }

  // Guarantee "never worse than ASAP": the bucketed DP is a heuristic over
  // a continuous problem; if quantisation ever costs more than the greedy
  // baseline, return the baseline.
  const PrefetchPlan baseline = asap();
  const bool baseline_better =
      (baseline.stall_s < plan.stall_s - 1e-9) ||
      (baseline.stall_s <= plan.stall_s + 1e-9 &&
       baseline.radio_energy_j < plan.radio_energy_j);
  return baseline_better ? baseline : plan;
}

}  // namespace eacs::core
