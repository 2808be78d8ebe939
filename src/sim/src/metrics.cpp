#include "eacs/sim/metrics.h"

#include "eacs/power/rrc.h"

namespace eacs::sim {

double session_energy_j(const player::PlaybackResult& result,
                        const power::PowerModel& power_model) {
  double total = 0.0;
  for (const auto& task : result.tasks) {
    power::TaskEnergyInput input;
    input.size_mb = task.size_mb;
    input.bitrate_mbps = task.bitrate_mbps;
    input.signal_dbm = task.signal_dbm;
    input.play_s = task.duration_s;
    input.rebuffer_s = task.rebuffer_s;
    total += power_model.task_energy(input);
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

double session_base_energy_j(const player::PlaybackResult& result,
                             const media::VideoManifest& manifest,
                             const power::PowerModel& power_model) {
  const std::size_t lowest = manifest.ladder().lowest_level();
  double total = 0.0;
  for (const auto& task : result.tasks) {
    power::TaskEnergyInput input;
    input.size_mb = manifest.segment_size_megabits(task.segment_index, lowest) / 8.0;
    input.bitrate_mbps = manifest.ladder().bitrate(lowest);
    input.signal_dbm = task.signal_dbm;
    input.play_s = task.duration_s;
    input.rebuffer_s = 0.0;
    total += power_model.task_energy(input);
  }
  return total;
}

double session_mean_qoe(const player::PlaybackResult& result,
                        const qoe::QoeModel& qoe_model) {
  double weighted = 0.0;
  double duration = 0.0;
  double prev_bitrate = 0.0;
  double prev_quality = 0.0;  // read only once prev_bitrate is > 0
  for (const auto& task : result.tasks) {
    qoe::SegmentContext context;
    context.bitrate_mbps = task.bitrate_mbps;
    context.vibration = task.vibration;
    context.prev_bitrate_mbps = prev_bitrate;
    context.rebuffer_s = task.rebuffer_s;
    // One q0 per task: this task's is the next one's switch reference.
    const double quality = qoe_model.original_quality(task.bitrate_mbps);
    weighted += qoe_model.segment_qoe(context, quality, prev_quality) *
                task.duration_s;
    duration += task.duration_s;
    prev_bitrate = task.bitrate_mbps;
    prev_quality = quality;
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
  SessionMetrics metrics;
  metrics.algorithm = algorithm;
  metrics.session_id = session_id;
  metrics.total_energy_j = session_energy_j(result, power_model);
  metrics.base_energy_j = session_base_energy_j(result, manifest, power_model);
  metrics.extra_energy_j = metrics.total_energy_j - metrics.base_energy_j;
  metrics.mean_qoe = session_mean_qoe(result, qoe_model);
  metrics.mean_bitrate_mbps = result.mean_bitrate_mbps();
  metrics.downloaded_mb = result.total_downloaded_mb();
  metrics.rebuffer_s = result.total_rebuffer_s;
  metrics.rebuffer_events = result.rebuffer_events;
  metrics.switch_count = result.switch_count;
  metrics.startup_delay_s = result.startup_delay_s;
  metrics.wasted_energy_j = session_wasted_energy_j(result, power_model);
  metrics.wasted_mb = result.total_wasted_mb;
  metrics.retries = result.total_retries;
  metrics.abandoned_segments = result.abandoned_segments;
  return metrics;
}

}  // namespace eacs::sim
