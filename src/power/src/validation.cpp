#include "eacs/power/validation.h"

#include <cmath>

namespace eacs::power {

std::vector<ValidationRow> validate_power_model(const PowerModel& model,
                                                const media::BitrateLadder& ladder,
                                                const MonsoonConfig& monsoon) {
  std::vector<ValidationRow> rows;
  const auto num_segments = static_cast<std::size_t>(std::ceil(
      kValidationVideoDurationS / kValidationSegmentDurationS - 1e-9));

  for (std::size_t level = 0; level < ladder.size(); ++level) {
    const double bitrate = ladder.bitrate(level);
    const double segment_mb = bitrate * kValidationSegmentDurationS / 8.0;
    const double download_s = segment_mb * 8.0 / kValidationThroughputMbps;

    // Activity timeline: the video plays continuously; each segment's
    // download occupies the head of its playback slot (steady-state DASH
    // keeps the buffer topped up one segment at a time).
    std::vector<ActivityInterval> timeline;
    timeline.reserve(num_segments * 2);
    for (std::size_t k = 0; k < num_segments; ++k) {
      const double slot_start = static_cast<double>(k) * kValidationSegmentDurationS;
      const double slot_end = std::min(slot_start + kValidationSegmentDurationS,
                                       kValidationVideoDurationS);
      const double dl_end = std::min(slot_start + download_s, slot_end);
      if (dl_end > slot_start) {
        timeline.push_back({slot_start, dl_end, /*playing=*/true, bitrate,
                            /*downloading=*/true, kValidationSignalDbm,
                            kValidationThroughputMbps});
      }
      if (slot_end > dl_end) {
        timeline.push_back({dl_end, slot_end, /*playing=*/true, bitrate,
                            /*downloading=*/false, kValidationSignalDbm, 0.0});
      }
    }

    MonsoonConfig channel = monsoon;
    channel.seed = monsoon.seed ^ (level * 0x9E37ULL + 1);
    MonsoonSimulator simulator(channel, model);

    ValidationRow row;
    row.bitrate_mbps = bitrate;
    row.measured_j = simulator.measure_energy(timeline);

    // Analytic prediction, following the paper: identify download periods,
    // charge per-byte radio energy for them, playback power for the whole
    // clip.
    TaskEnergyInput whole_clip;
    whole_clip.size_mb = segment_mb * static_cast<double>(num_segments);
    whole_clip.bitrate_mbps = bitrate;
    whole_clip.signal_dbm = kValidationSignalDbm;
    whole_clip.play_s = kValidationVideoDurationS;
    whole_clip.rebuffer_s = 0.0;
    row.calculated_j = model.task_energy(whole_clip);

    row.error_ratio = row.measured_j > 0.0
                          ? std::fabs(row.measured_j - row.calculated_j) / row.measured_j
                          : 0.0;
    rows.push_back(row);
  }
  return rows;
}

double mean_error_ratio(const std::vector<ValidationRow>& rows) {
  if (rows.empty()) return 0.0;
  double total = 0.0;
  for (const auto& row : rows) total += row.error_ratio;
  return total / static_cast<double>(rows.size());
}

}  // namespace eacs::power
