#pragma once
// Monsoon power-monitor simulator.
//
// The paper validates its power model against a Monsoon monitor attached to
// the phone (Table VI). We cannot attach hardware, so this module synthesises
// the measurement channel: given a session's activity timeline (which
// intervals played video at which bitrate, which intervals downloaded at
// which signal strength and throughput), it produces a dense power-sample
// stream containing effects the *analytic* model deliberately ignores —
// periodic CPU/wakeup ripple, slow thermal drift and white measurement noise
// — and integrates it to a "measured" energy the way one integrates Monsoon
// output. Comparing that against PowerModel::task_energy reproduces the
// paper's validation methodology (error consistently < 3%).

#include <cstdint>
#include <vector>

#include "eacs/power/model.h"
#include "eacs/util/rng.h"

namespace eacs::power {

/// One homogeneous interval of phone activity.
struct ActivityInterval {
  double start_s = 0.0;
  double end_s = 0.0;
  bool playing = false;            ///< video decoding on screen
  double bitrate_mbps = 0.0;       ///< bitrate being played (if playing)
  bool downloading = false;        ///< radio actively receiving
  double signal_dbm = -90.0;       ///< signal during the interval
  double throughput_mbps = 0.0;    ///< receive rate during the interval
};

/// Monsoon channel configuration.
struct MonsoonConfig {
  double sample_rate_hz = 5000.0;  ///< real Monsoon LVPM rate
  double noise_sd_w = 0.05;        ///< white measurement noise
  double ripple_w = 0.06;          ///< unmodeled periodic CPU/wakeup ripple
  double ripple_hz = 1.3;
  double drift_w = 0.02;           ///< slow thermal drift amplitude
  std::uint64_t seed = 77;
};

/// Synthesises and integrates power measurements.
class MonsoonSimulator {
 public:
  /// Throws std::invalid_argument, naming `sample_rate_hz`, unless the
  /// sample rate is finite and > 0.
  explicit MonsoonSimulator(MonsoonConfig config, PowerModel model);

  /// Samples the power channel over a timeline of activity intervals at
  /// config.sample_rate_hz and integrates the stream to joules (trapezoidal,
  /// per interval), without materialising the samples. Throws
  /// std::invalid_argument on an empty or negative interval.
  double measure_energy(const std::vector<ActivityInterval>& timeline);

 private:
  double true_power(const ActivityInterval& interval) const noexcept;

  MonsoonConfig config_;
  PowerModel model_;
  eacs::Rng rng_;
};

}  // namespace eacs::power
