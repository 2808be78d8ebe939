#include "eacs/sim/metrics.h"

#include <bit>
#include <cstdint>
#include <optional>

#include "eacs/power/rrc.h"

namespace eacs::sim {
namespace {

/// The power model's input for what task `task` downloaded and played.
power::TaskEnergyInput played_input(const player::TaskRecord& task) {
  power::TaskEnergyInput input;
  input.size_mb = task.size_mb;
  input.bitrate_mbps = task.bitrate_mbps;
  input.signal_dbm = task.signal_dbm;
  input.play_s = task.duration_s;
  input.rebuffer_s = task.rebuffer_s;
  return input;
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

double session_energy_j(const player::PlaybackResult& result,
                        const power::PowerModel& power_model) {
  double total = 0.0;
  for (const auto& task : result.tasks) {
    total += power_model.task_energy(played_input(task));
  }
  // Aborted transfers drain the battery too (zero on fault-free runs).
  return total + session_wasted_energy_j(result, power_model);
}

double session_wasted_energy_j(const player::PlaybackResult& result,
                               const power::PowerModel& power_model) {
  double total = 0.0;
  for (const auto& task : result.tasks) {
    if (task.wasted_mb > 0.0) {
      total += power_model.download_energy(task.wasted_mb, task.wasted_signal_dbm);
    }
  }
  return total;
}

double session_mean_qoe(const player::PlaybackResult& result,
                        const qoe::QoeModel& qoe_model) {
  // One rung per run of tasks whose bitrates share a bit pattern: q0(r) and
  // r^beta once per run, kappa * v^alpha once per task (in segment_qoe).
  std::vector<double> run_bitrates;
  for (const auto& task : result.tasks) {
    if (run_bitrates.empty() ||
        !same_bits(task.bitrate_mbps, run_bitrates.back())) {
      run_bitrates.push_back(task.bitrate_mbps);
    }
  }
  const qoe::RungTerms rungs = qoe_model.rung_terms(run_bitrates);
  double weighted = 0.0;
  double duration = 0.0;
  std::size_t run = 0;
  std::optional<std::size_t> prev_run;  // none for the first task
  for (const auto& task : result.tasks) {
    if (prev_run && !same_bits(task.bitrate_mbps, rungs.bitrate_mbps[run])) {
      ++run;
    }
    weighted += qoe_model.segment_qoe(rungs, run, prev_run, task.vibration,
                                      task.rebuffer_s) *
                task.duration_s;
    duration += task.duration_s;
    prev_run = run;
  }
  return duration > 0.0 ? weighted / duration : 0.0;
}

RrcSessionEnergy session_energy_rrc(const player::PlaybackResult& result,
                                    const power::PowerModel& power_model) {
  RrcSessionEnergy out;
  std::vector<power::TransferBurst> bursts;
  bursts.reserve(result.tasks.size());
  for (const auto& task : result.tasks) {
    if (task.download_end_s > task.download_start_s) {
      bursts.push_back({task.download_start_s, task.download_end_s});
    }
    out.data_j += power_model.download_energy(task.size_mb, task.signal_dbm);
    out.playback_j += power_model.playback_power(task.bitrate_mbps) * task.duration_s;
    if (task.rebuffer_s > 0.0) {
      out.playback_j += power_model.pause_power() * task.rebuffer_s;
    }
  }
  const auto breakdown =
      power::rrc_breakdown(std::move(bursts), result.session_end_s);
  out.tail_j = breakdown.tail_energy_j;
  out.idle_j = breakdown.idle_energy_j;
  out.promotion_j = breakdown.promotion_energy_j;
  out.promotions = breakdown.promotions;
  out.tail_time_s = breakdown.tail_time_s;
  return out;
}

SessionMetrics compute_metrics(const std::string& algorithm, int session_id,
                               const player::PlaybackResult& result,
                               const media::VideoManifest& manifest,
                               const qoe::QoeModel& qoe_model,
                               const power::PowerModel& power_model) {
  // One pass, one e(s) per task: it prices what the task played (the sum
  // session_energy_j takes) and the lowest rung at the task's signal with no
  // stall (the base energy).
  const std::size_t lowest = manifest.ladder().lowest_level();
  const double lowest_bitrate = manifest.ladder().bitrate(lowest);
  double played = 0.0;
  double base = 0.0;
  for (const auto& task : result.tasks) {
    const double j_per_mb = power_model.energy_per_mb(task.signal_dbm);
    played += power_model.task_energy(played_input(task), j_per_mb);
    power::TaskEnergyInput lowest_input;
    lowest_input.size_mb =
        manifest.segment_size_megabits(task.segment_index, lowest) / 8.0;
    lowest_input.bitrate_mbps = lowest_bitrate;
    lowest_input.signal_dbm = task.signal_dbm;
    lowest_input.play_s = task.duration_s;
    base += power_model.task_energy(lowest_input, j_per_mb);
  }
  const double wasted = session_wasted_energy_j(result, power_model);

  SessionMetrics metrics;
  metrics.algorithm = algorithm;
  metrics.session_id = session_id;
  metrics.total_energy_j = played + wasted;
  metrics.base_energy_j = base;
  metrics.extra_energy_j = metrics.total_energy_j - metrics.base_energy_j;
  metrics.mean_qoe = session_mean_qoe(result, qoe_model);
  metrics.mean_bitrate_mbps = result.mean_bitrate_mbps();
  metrics.downloaded_mb = result.total_downloaded_mb();
  metrics.rebuffer_s = result.total_rebuffer_s;
  metrics.rebuffer_events = result.rebuffer_events;
  metrics.switch_count = result.switch_count;
  metrics.startup_delay_s = result.startup_delay_s;
  metrics.wasted_energy_j = wasted;
  metrics.wasted_mb = result.total_wasted_mb;
  metrics.retries = result.total_retries;
  metrics.abandoned_segments = result.abandoned_segments;
  return metrics;
}

}  // namespace eacs::sim
