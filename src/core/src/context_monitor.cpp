#include "eacs/core/context_monitor.h"

#include <algorithm>
#include <cmath>

namespace eacs::core {

void ContextMonitor::update_accel(const sensors::AccelSample& sample) {
  vibration_.update(sample);
  health_.observe_accel(sample);
  if (std::isfinite(sample.t_s)) clock_s_ = std::max(clock_s_, sample.t_s);
}

void ContextMonitor::observe_throughput(double mbps) { bandwidth_.observe(mbps); }

void ContextMonitor::observe_signal(double dbm) {
  observe_signal(clock_s_, dbm);
}

void ContextMonitor::observe_signal(double t_s, double dbm) {
  health_.observe_signal(t_s, dbm);
  // Only a delivered reading (what the health monitor counts) moves the clock.
  if (std::isfinite(t_s) && std::isfinite(dbm)) clock_s_ = std::max(clock_s_, t_s);
}

ContextSnapshot ContextMonitor::snapshot() const { return snapshot(clock_s_); }

ContextSnapshot ContextMonitor::snapshot(double now_s) const {
  ContextSnapshot snap;
  snap.vibration = vibration_.level_at(now_s);
  snap.bandwidth_mbps = bandwidth_.estimate();
  snap.signal_dbm = health_.last_signal_dbm();
  snap.vibrating_environment = snap.vibration >= kVibratingThreshold;
  snap.vibration_health = health_.accel_health(now_s);
  snap.signal_health = health_.signal_health(now_s);
  snap.vibration_confidence = health_.vibration_confidence(now_s);
  snap.signal_age_s = health_.signal_age_s(now_s);
  return snap;
}

void ContextMonitor::reset() {
  vibration_.reset();
  health_.reset();
  bandwidth_.reset();
  clock_s_ = 0.0;
}

}  // namespace eacs::core
