#pragma once
// ContextMonitor: the app-facing sensing façade.
//
// A real player integration feeds this object raw accelerometer samples,
// completed-download throughputs and telephony signal readings; it exposes
// the context snapshot (vibration level, bandwidth estimate, signal) that
// OnlineBitrateSelector consumes. The player simulator performs the same
// wiring internally; examples use this class to demonstrate the public API.
//
// Sensing is fallible, so the monitor also grades its own inputs: a
// SensorHealthMonitor tracks per-sensor freshness and validity, and the
// snapshot carries health fields (vibration_confidence, signal_age_s,
// ContextHealth grades) that let the selector fall back to a conservative
// policy instead of planning on stale or garbage context (DESIGN.md "Sensor
// failure model & degraded-context operation").

#include "eacs/net/bandwidth_estimator.h"
#include "eacs/sensors/sensor_health.h"
#include "eacs/sensors/vibration.h"

namespace eacs::core {

/// Point-in-time context snapshot.
struct ContextSnapshot {
  double vibration = 0.0;        ///< m/s^2, trailing-window estimate
  double bandwidth_mbps = 0.0;   ///< harmonic-mean estimate; 0 = no data yet
  double signal_dbm = -90.0;     ///< latest signal reading
  bool vibrating_environment = false;  ///< vibration at or above the bar

  // Health of the sensed inputs behind the numbers above.
  sensors::ContextHealth vibration_health = sensors::ContextHealth::kHealthy;
  sensors::ContextHealth signal_health = sensors::ContextHealth::kHealthy;
  double vibration_confidence = 1.0;  ///< [0, 1]; see SensorHealthMonitor
  double signal_age_s = 0.0;          ///< seconds since the signal reading
};

/// Streaming context aggregator over the default vibration estimator, health
/// monitor and 20-deep harmonic-mean bandwidth estimator.
class ContextMonitor {
 public:
  /// m/s^2 bar for ContextSnapshot::vibrating_environment.
  static constexpr double kVibratingThreshold = 2.0;

  /// Feeds one raw accelerometer sample. Non-finite samples are rejected by
  /// the vibration estimator but still graded by the health monitor.
  void update_accel(const sensors::AccelSample& sample);

  /// Records a completed segment download's measured throughput.
  void observe_throughput(double mbps);

  /// Records a telephony signal-strength reading. The untimed overload stamps
  /// it with the internal clock. A reading with a non-finite stamp or value
  /// is undelivered: the health monitor ignores it and the clock stays.
  void observe_signal(double dbm);
  void observe_signal(double t_s, double dbm);

  /// Snapshot at the internal clock.
  ContextSnapshot snapshot() const;

  /// Snapshot at an explicit time: the vibration estimate decays toward the
  /// conservative prior if the stream has gone quiet, and the health fields
  /// reflect staleness at `now_s`. The signal is the health monitor's
  /// newest-stamped reading.
  ContextSnapshot snapshot(double now_s) const;

  const net::BandwidthEstimator& bandwidth_estimator() const noexcept {
    return bandwidth_;
  }

  const sensors::SensorHealthMonitor& health() const noexcept { return health_; }

  void reset();

 private:
  sensors::VibrationEstimator vibration_;
  sensors::SensorHealthMonitor health_;
  net::HarmonicMeanEstimator bandwidth_;
  /// The internal clock: the latest finite timestamp of an accelerometer
  /// sample or of a delivered signal reading.
  double clock_s_ = 0.0;
};

}  // namespace eacs::core
