#include "eacs/sensors/sensor_health.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eacs::sensors {

void SensorHealthMonitor::observe_accel(const AccelSample& sample) {
  const bool valid = std::isfinite(sample.t_s) && std::isfinite(sample.x) &&
                     std::isfinite(sample.y) && std::isfinite(sample.z);
  ++accel_samples_;
  if (!valid) ++invalid_accel_;
  // A garbage sample still proves the sensor is delivering: refresh the
  // clock whenever the timestamp itself is usable.
  if (std::isfinite(sample.t_s)) {
    last_accel_t_s_ = accel_seen_ ? std::max(last_accel_t_s_, sample.t_s)
                                  : sample.t_s;
    accel_seen_ = true;
  }

  if (ring_fill_ == validity_ring_.size()) {
    if (!validity_ring_[ring_head_]) --ring_invalid_;
  } else {
    ++ring_fill_;
  }
  validity_ring_[ring_head_] = valid;
  if (!valid) ++ring_invalid_;
  ring_head_ = (ring_head_ + 1) % validity_ring_.size();
}

void SensorHealthMonitor::observe_signal(double t_s, double dbm) {
  if (!std::isfinite(t_s) || !std::isfinite(dbm)) return;  // undelivered
  ++signal_readings_;
  if (signal_seen_ && t_s < last_signal_t_s_) return;  // older than the newest
  last_signal_t_s_ = t_s;
  last_signal_dbm_ = dbm;
  signal_seen_ = true;
}

double SensorHealthMonitor::accel_age_s(double now_s) const noexcept {
  if (!accel_seen_) return std::numeric_limits<double>::infinity();
  return std::max(0.0, now_s - last_accel_t_s_);
}

double SensorHealthMonitor::signal_age_s(double now_s) const noexcept {
  if (!signal_seen_) return std::numeric_limits<double>::infinity();
  return std::max(0.0, now_s - last_signal_t_s_);
}

double SensorHealthMonitor::invalid_fraction() const noexcept {
  if (ring_fill_ == 0) return 0.0;
  return static_cast<double>(ring_invalid_) / static_cast<double>(ring_fill_);
}

ContextHealth SensorHealthMonitor::accel_health(double now_s) const noexcept {
  const double age = accel_age_s(now_s);
  const double invalid = invalid_fraction();
  if (age > kAccelLostAfterS || invalid >= kLostInvalidFraction ||
      (!accel_seen_ && !std::isfinite(age))) {
    return ContextHealth::kLost;
  }
  if (age > kAccelStaleAfterS || invalid > kDegradedInvalidFraction) {
    return ContextHealth::kDegraded;
  }
  return ContextHealth::kHealthy;
}

ContextHealth SensorHealthMonitor::signal_health(double now_s) const noexcept {
  const double age = signal_age_s(now_s);
  if (age > kSignalLostAfterS) return ContextHealth::kLost;
  if (age > kSignalStaleAfterS) return ContextHealth::kDegraded;
  return ContextHealth::kHealthy;
}

double SensorHealthMonitor::vibration_confidence(double now_s) const noexcept {
  if (!accel_seen_) return 0.0;
  const double age = accel_age_s(now_s);
  double freshness = 1.0;
  if (age > kAccelStaleAfterS) {
    freshness = 1.0 - (age - kAccelStaleAfterS) /
                          (kAccelLostAfterS - kAccelStaleAfterS);
    freshness = std::clamp(freshness, 0.0, 1.0);
  }
  return freshness * (1.0 - invalid_fraction());
}

void SensorHealthMonitor::reset() { *this = SensorHealthMonitor(); }

}  // namespace eacs::sensors
