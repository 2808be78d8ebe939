#pragma once
// Power-model validation harness (Table VI).
//
// Reproduces the paper's methodology: stream a fixed test video at each
// Table II bitrate under a -90 dBm signal, record the "real" power trace with
// the (simulated) Monsoon monitor, identify the download periods, and compare
// the integrated measurement against the analytic model's prediction. The
// paper reports error ratios consistently below 3% (mean 1.43%). The setup
// (clip, segments, signal, download rate) is the named constants below; only
// the measurement channel's MonsoonConfig is a parameter.

#include <vector>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/power/model.h"
#include "eacs/power/monsoon.h"

namespace eacs::power {

/// One Table VI row.
struct ValidationRow {
  double bitrate_mbps = 0.0;
  double measured_j = 0.0;    ///< integrated (simulated) Monsoon trace
  double calculated_j = 0.0;  ///< analytic PowerModel prediction
  double error_ratio = 0.0;   ///< |measured - calculated| / measured
};

// The Table VI setup.
/// The paper's short YouTube test clip.
inline constexpr double kValidationVideoDurationS = 300.0;
inline constexpr double kValidationSegmentDurationS = 2.0;
inline constexpr double kValidationSignalDbm = -90.0;
/// Stable download rate at -90 dBm.
inline constexpr double kValidationThroughputMbps = 20.0;

/// Runs the validation across a ladder through a measurement channel with
/// the given knobs (each rung's channel seed is derived from monsoon.seed).
/// One row per rung, ascending bitrate.
std::vector<ValidationRow> validate_power_model(const PowerModel& model,
                                                const media::BitrateLadder& ladder,
                                                const MonsoonConfig& monsoon = {});

/// Mean error ratio across rows.
double mean_error_ratio(const std::vector<ValidationRow>& rows);

}  // namespace eacs::power
