#pragma once
// Deterministic fault injection over sensor streams — the sensing-side
// sibling of net::FaultInjector.
//
// The context path assumes the accelerometer and the telephony signal are
// always present, fresh and finite; real handsets deliver none of those
// guarantees. This layer corrupts the *perceived* streams (what the client's
// estimators see) while the physical session — link throughput, true signal
// at the radio, true vibration at the screen — stays untouched, so a study
// can measure exactly what bad sensing costs the context-aware algorithm.
//
// Accelerometer fault families, applied over scripted plus seeded-random
// episodes merged into one schedule:
//
//  * dropout          — samples stop arriving (sensor service killed);
//  * stuck-at         — the last pre-episode reading repeats (frozen driver);
//  * noise burst      — additive Gaussian noise on every axis (EMI, loose
//                       mount);
//  * rail saturation  — every axis pegs at the sensor rail (clipped part);
//  * NaN corruption   — samples arrive with non-finite axes (firmware bug);
//  * rate collapse    — only every Nth sample survives (starved sensor HAL).
//
// Signal-strength faults: dropout episodes during which telephony readings
// are simply not delivered, so the client's last reading goes stale.
//
// Everything is a pure function of (streams, spec): the same inputs
// reproduce the same episode schedule and the same corrupted samples
// bit-for-bit. A default-constructed spec injects nothing and the injector's
// outputs are element-identical to its inputs.

#include <cstdint>
#include <vector>

#include "eacs/sensors/accel.h"
#include "eacs/sensors/sensor_health.h"

namespace eacs::sensors {

/// Accelerometer fault families.
enum class SensorFaultType {
  kDropout,       ///< samples stop arriving
  kStuckAt,       ///< last pre-episode reading repeats
  kNoiseBurst,    ///< additive Gaussian noise per axis
  kSaturation,    ///< axes pegged at +rail
  kNanCorruption, ///< axes replaced by NaN with per-sample probability
  kRateCollapse,  ///< only every Nth sample delivered
};

/// One fault episode: `type` applies to samples with t in [start_s, end_s).
struct SensorFaultEpisode {
  SensorFaultType type = SensorFaultType::kDropout;
  double start_s = 0.0;
  double end_s = 0.0;

  double duration_s() const noexcept { return end_s - start_s; }
};

/// Full description of the sensor faults to inject. The default-constructed
/// spec injects nothing: the injector passes both streams through untouched.
struct SensorFaultSpec {
  /// Scripted accelerometer episodes; merged with the random ones.
  std::vector<SensorFaultEpisode> accel_episodes;

  /// Seeded-random accel episodes: Poisson arrivals at this rate...
  double accel_episode_rate_per_min = 0.0;
  /// ...with exponentially distributed durations of this mean...
  double accel_episode_mean_s = 10.0;
  /// ...each drawing its fault family uniformly from this set.
  std::vector<SensorFaultType> random_fault_types = {
      SensorFaultType::kDropout,       SensorFaultType::kStuckAt,
      SensorFaultType::kNoiseBurst,    SensorFaultType::kSaturation,
      SensorFaultType::kNanCorruption, SensorFaultType::kRateCollapse};

  /// Per-axis noise sigma during kNoiseBurst episodes (m/s^2).
  double noise_sigma = 3.0;
  /// Rail value during kSaturation episodes (m/s^2; ~2 g like a phone part).
  double saturation_rail = 19.6133;
  /// Per-sample corruption probability inside kNanCorruption episodes.
  double nan_prob = 0.5;
  /// kRateCollapse keeps one sample in this many.
  std::size_t rate_collapse_keep = 16;

  /// Scripted signal-dropout episodes (the episode type is ignored).
  std::vector<SensorFaultEpisode> signal_episodes;
  /// Seeded-random signal dropouts: Poisson arrivals / exponential durations.
  double signal_dropout_rate_per_min = 0.0;
  double signal_dropout_mean_s = 20.0;

  /// Seed for the random schedules and per-sample corruption draws.
  std::uint64_t seed = 0x5E50'FA17ULL;

  /// True if any fault family is switched on.
  bool enabled() const noexcept {
    return !accel_episodes.empty() || accel_episode_rate_per_min > 0.0 ||
           !signal_episodes.empty() || signal_dropout_rate_per_min > 0.0;
  }
};

/// Applies a SensorFaultSpec to one session's perceived sensor streams.
/// Construction does all the work; the corrupted streams are then immutable.
class SensorFaultInjector {
 public:
  /// `accel` and `signal` are the clean streams the client would have seen;
  /// they are copied, so the injector owns its outputs. Throws
  /// std::invalid_argument on malformed episodes or parameters, and naming
  /// the stream and index of the first accel sample or signal reading whose
  /// timestamp is NaN.
  SensorFaultInjector(const AccelTrace& accel, std::vector<SignalSample> signal,
                      SensorFaultSpec spec);

  /// False for a default-constructed spec: outputs == inputs.
  bool active() const noexcept { return spec_.enabled(); }
  const SensorFaultSpec& spec() const noexcept { return spec_; }

  /// The corrupted accelerometer stream (dropped samples removed, corrupted
  /// samples in place, still time-ordered).
  const AccelTrace& accel() const noexcept { return accel_; }

  /// The delivered signal readings (dropout episodes removed).
  const std::vector<SignalSample>& signal() const noexcept { return signal_; }

  /// Merged accel episode schedule, sorted by start, non-overlapping.
  const std::vector<SensorFaultEpisode>& accel_schedule() const noexcept {
    return accel_schedule_;
  }
  /// Merged signal-dropout schedule, sorted, non-overlapping.
  const std::vector<SensorFaultEpisode>& signal_schedule() const noexcept {
    return signal_schedule_;
  }

  /// True if an accel episode covers `t_s`; `type` (optional) receives which.
  bool accel_in_fault(double t_s, SensorFaultType* type = nullptr) const noexcept;

  /// Last delivered signal reading at or before `t_s` (falls back to the
  /// first reading before any, -90 dBm if none were ever delivered).
  double signal_at(double t_s) const noexcept;

  /// Age of the last delivered reading at `t_s`; +inf if none were delivered.
  double signal_age_s(double t_s) const noexcept;

 private:
  SensorFaultSpec spec_;
  std::vector<SensorFaultEpisode> accel_schedule_;
  std::vector<SensorFaultEpisode> signal_schedule_;
  AccelTrace accel_;
  std::vector<SignalSample> signal_;
};

}  // namespace eacs::sensors
