#pragma once
// Per-sensor freshness/validity tracking for the context pipeline.
//
// The context-aware algorithm plans on two sensed inputs — the accelerometer
// stream behind the vibration estimate (Eq. 5) and the telephony
// signal-strength readings behind the power model — and both fail in the
// field: batches stop arriving (dropout), arrive full of NaN/Inf garbage
// (driver bugs, I2C corruption), or go stale (telephony callbacks suppressed
// in doze mode). SensorHealthMonitor watches each stream's delivery times and
// sample validity and grades it kHealthy / kDegraded / kLost, so the
// selector can fall back to a conservative policy instead of planning on
// garbage (DESIGN.md "Sensor failure model & degraded-context operation").
//
// The monitor is pure bookkeeping: it never mutates the streams it observes,
// and a run that never consults it behaves bit-identically with or without
// one attached.

#include <array>
#include <cstddef>

#include "eacs/sensors/accel.h"

namespace eacs::sensors {

/// Trust grade for one sensed input.
enum class ContextHealth {
  kHealthy,   ///< fresh and valid; use the measurement as-is
  kDegraded,  ///< stale or partially invalid; blend toward the prior
  kLost,      ///< no usable data; plan on the conservative prior
};

/// One telephony signal-strength reading as delivered to the client.
struct SignalSample {
  double t_s = 0.0;     ///< delivery timestamp, seconds since stream start
  double dbm = -90.0;   ///< RSRP reading
};

/// Streaming per-sensor health tracker.
///
/// Feed every delivered sample (valid or not); query health/confidence at
/// decision time. Deterministic, O(1) per sample, no allocation.
class SensorHealthMonitor {
 public:
  // Freshness/validity thresholds.

  /// Accelerometer ages (seconds since the last *delivered* sample) at which
  /// the stream grades kDegraded / kLost. At 50 Hz, 0.5 s is 25 missed
  /// samples — far beyond jitter, clearly a dropout.
  static constexpr double kAccelStaleAfterS = 0.5;
  static constexpr double kAccelLostAfterS = 5.0;

  /// Signal-reading ages at which the stream grades kDegraded / kLost.
  /// Telephony callbacks are sparse by nature, so the bars sit much higher.
  static constexpr double kSignalStaleAfterS = 10.0;
  static constexpr double kSignalLostAfterS = 60.0;

  /// Validity window: the fraction of non-finite samples over the last
  /// `kValidityWindow` deliveries feeds the grade (a fresh stream of NaNs is
  /// just as lost as no stream at all).
  static constexpr std::size_t kValidityWindow = 50;
  /// Invalid fraction above which a fresh stream grades kDegraded.
  static constexpr double kDegradedInvalidFraction = 0.25;
  /// Invalid fraction at or above which a fresh stream grades kLost.
  static constexpr double kLostInvalidFraction = 0.9;

  /// Observes one delivered accelerometer sample; non-finite components are
  /// counted as invalid (they still refresh the delivery clock — a sensor
  /// producing garbage is alive but untrustworthy).
  void observe_accel(const AccelSample& sample);

  /// Observes one delivered signal-strength reading. A non-finite stamp or
  /// value is undelivered and ignored. The newest-stamped reading owns the
  /// value and the age: a reading stamped before it counts as delivered but
  /// changes neither, and of equal stamps the later arrival wins.
  void observe_signal(double t_s, double dbm);

  /// Seconds since the last delivered accel sample; +inf before the first.
  double accel_age_s(double now_s) const noexcept;
  /// Seconds since the last delivered signal reading; +inf before the first.
  double signal_age_s(double now_s) const noexcept;

  /// Health grades at time `now_s` (freshness x validity for accel,
  /// freshness for signal).
  ContextHealth accel_health(double now_s) const noexcept;
  ContextHealth signal_health(double now_s) const noexcept;

  /// Confidence in the vibration estimate at `now_s`, in [0, 1]: the product
  /// of a freshness factor (1 fresh, 0 at kAccelLostAfterS) and the valid
  /// fraction of the recent window. 0 before any sample.
  double vibration_confidence(double now_s) const noexcept;

  /// Newest-stamped delivered signal reading (-90 dBm before any).
  double last_signal_dbm() const noexcept { return last_signal_dbm_; }

  /// Fraction of non-finite samples over the trailing validity window
  /// (0 before any sample).
  double invalid_fraction() const noexcept;

  std::size_t accel_samples() const noexcept { return accel_samples_; }
  std::size_t invalid_accel_samples() const noexcept { return invalid_accel_; }
  std::size_t signal_readings() const noexcept { return signal_readings_; }

  void reset();

 private:
  std::size_t accel_samples_ = 0;
  std::size_t invalid_accel_ = 0;
  double last_accel_t_s_ = 0.0;
  bool accel_seen_ = false;

  std::size_t signal_readings_ = 0;
  double last_signal_t_s_ = 0.0;
  double last_signal_dbm_ = -90.0;
  bool signal_seen_ = false;

  // Ring buffer of validity bits over the last kValidityWindow samples.
  std::array<bool, kValidityWindow> validity_ring_{};
  std::size_t ring_head_ = 0;
  std::size_t ring_fill_ = 0;
  std::size_t ring_invalid_ = 0;
};

}  // namespace eacs::sensors
