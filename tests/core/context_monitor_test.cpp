// ContextMonitor edge cases: what the sensing façade reports when its inputs
// are missing, stale, or garbage. The contract (DESIGN.md "Sensor failure
// model & degraded-context operation"): unknown context is treated as the
// conservative vibrating-commute prior, never as a quiet room, and the
// snapshot's health fields always tell the selector how much to trust it.

#include "eacs/core/context_monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace eacs::core {
namespace {

using sensors::ContextHealth;

void feed_quiet(ContextMonitor& monitor, double from_s, double to_s) {
  for (double t = from_s; t < to_s; t += 0.02) {
    monitor.update_accel({t, 0.0, 0.0, sensors::kGravity});
  }
}

TEST(ContextMonitorTest, FreshInputsGradeHealthy) {
  ContextMonitor monitor;
  feed_quiet(monitor, 0.0, 10.0);
  monitor.observe_signal(-75.0);
  monitor.observe_throughput(8.0);
  const auto snap = monitor.snapshot();
  EXPECT_EQ(snap.vibration_health, ContextHealth::kHealthy);
  EXPECT_EQ(snap.signal_health, ContextHealth::kHealthy);
  EXPECT_NEAR(snap.vibration_confidence, 1.0, 0.05);
  EXPECT_NEAR(snap.vibration, 0.0, 0.1);  // quiet room, fresh stream: raw level
  EXPECT_FALSE(snap.vibrating_environment);
  EXPECT_DOUBLE_EQ(snap.signal_dbm, -75.0);
  EXPECT_DOUBLE_EQ(snap.bandwidth_mbps, 8.0);
}

TEST(ContextMonitorTest, NoDataReportsConservativePrior) {
  const ContextMonitor monitor;
  const auto snap = monitor.snapshot();
  EXPECT_EQ(snap.vibration_health, ContextHealth::kLost);
  EXPECT_EQ(snap.signal_health, ContextHealth::kLost);
  EXPECT_DOUBLE_EQ(snap.vibration_confidence, 0.0);
  EXPECT_DOUBLE_EQ(snap.vibration, sensors::VibrationConfig{}.prior_vibration);
  EXPECT_TRUE(snap.vibrating_environment);  // prior sits above the 2 m/s^2 bar
}

TEST(ContextMonitorTest, NanFloodGradesLostAndFallsBackToPrior) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ContextMonitor monitor;
  for (double t = 0.0; t < 5.0; t += 0.02) {
    monitor.update_accel({t, nan, nan, nan});
  }
  const auto snap = monitor.snapshot();
  EXPECT_EQ(snap.vibration_health, ContextHealth::kLost);
  EXPECT_DOUBLE_EQ(snap.vibration_confidence, 0.0);
  EXPECT_TRUE(std::isfinite(snap.vibration));
  EXPECT_DOUBLE_EQ(snap.vibration, sensors::VibrationConfig{}.prior_vibration);
}

TEST(ContextMonitorTest, StaleAccelDecaysTowardPrior) {
  ContextMonitor monitor;
  feed_quiet(monitor, 0.0, 10.0);
  const double fresh = monitor.snapshot(10.0).vibration;
  EXPECT_NEAR(fresh, 0.0, 0.1);
  // 100 s of silence: past accel_lost_after_s, essentially the prior.
  const auto stale = monitor.snapshot(110.0);
  EXPECT_EQ(stale.vibration_health, ContextHealth::kLost);
  EXPECT_NEAR(stale.vibration, sensors::VibrationConfig{}.prior_vibration, 1e-3);
  // Part-way: strictly between the fresh level and the prior, graded degraded
  // or lost depending on the age, never healthy.
  const auto mid = monitor.snapshot(10.0 + 4.0);
  EXPECT_GT(mid.vibration, fresh);
  EXPECT_LT(mid.vibration, sensors::VibrationConfig{}.prior_vibration);
  EXPECT_NE(mid.vibration_health, ContextHealth::kHealthy);
}

TEST(ContextMonitorTest, UntimedSignalIsStampedWithTheAccelClock) {
  ContextMonitor monitor;
  feed_quiet(monitor, 0.0, 5.0);
  monitor.observe_signal(-70.0);
  const auto now = monitor.snapshot();
  EXPECT_DOUBLE_EQ(now.signal_dbm, -70.0);
  EXPECT_NEAR(now.signal_age_s, 0.0, 0.05);
  const auto later = monitor.snapshot(5.0 + 15.0);
  EXPECT_NEAR(later.signal_age_s, 15.0, 0.05);
  EXPECT_EQ(later.signal_health, ContextHealth::kDegraded);
}

TEST(ContextMonitorTest, NonFiniteSignalReadingsAreIgnored) {
  ContextMonitor monitor;
  feed_quiet(monitor, 0.0, 1.0);
  monitor.observe_signal(-70.0);
  monitor.observe_signal(std::numeric_limits<double>::quiet_NaN());
  monitor.observe_signal(-std::numeric_limits<double>::infinity());
  const auto snap = monitor.snapshot();
  EXPECT_DOUBLE_EQ(snap.signal_dbm, -70.0);
  EXPECT_TRUE(std::isfinite(snap.signal_dbm));
}

TEST(ContextMonitorTest, UndeliveredSignalReadingKeepsTheLastValue) {
  // A NaN-stamped reading is undelivered: the snapshot keeps the last
  // delivered value together with its age.
  ContextMonitor monitor;
  monitor.observe_signal(0.0, -70.0);
  monitor.observe_signal(std::numeric_limits<double>::quiet_NaN(), -120.0);
  const auto snap = monitor.snapshot(1.0);
  EXPECT_DOUBLE_EQ(snap.signal_dbm, -70.0);
  EXPECT_DOUBLE_EQ(snap.signal_age_s, 1.0);
  EXPECT_EQ(snap.signal_health, ContextHealth::kHealthy);
}

TEST(ContextMonitorTest, OlderSignalReadingDoesNotReplaceTheNewest) {
  // Value and age come from one reading: the newest-stamped one.
  ContextMonitor monitor;
  monitor.observe_signal(10.0, -70.0);
  monitor.observe_signal(5.0, -120.0);
  const auto snap = monitor.snapshot(10.0);
  EXPECT_DOUBLE_EQ(snap.signal_dbm, -70.0);
  EXPECT_DOUBLE_EQ(snap.signal_age_s, 0.0);
}

TEST(ContextMonitorTest, UndeliveredSignalReadingLeavesTheClock) {
  // Only a delivered reading moves the internal clock: a NaN value stamped
  // far ahead must not age the fresh accelerometer stream.
  ContextMonitor monitor;
  feed_quiet(monitor, 0.0, 5.01);
  const auto before = monitor.snapshot();
  ASSERT_EQ(before.vibration_health, ContextHealth::kHealthy);
  monitor.observe_signal(100.0, std::numeric_limits<double>::quiet_NaN());
  const auto after = monitor.snapshot();
  EXPECT_EQ(after.vibration_health, ContextHealth::kHealthy);
  EXPECT_DOUBLE_EQ(after.vibration, before.vibration);
  EXPECT_NEAR(after.vibration, 0.0, 0.1);
}

TEST(ContextMonitorTest, VibratingFromTwoMetresPerSecondSquared) {
  // A 5 Hz shake whose level reads between 2.0 and 2.5 m/s^2 counts as a
  // vibrating environment.
  ContextMonitor monitor;
  constexpr double kPi = 3.14159265358979323846;
  const double amplitude = 2.25 * std::sqrt(2.0);
  for (double t = 0.0; t < 10.0; t += 0.02) {
    const double shake = amplitude * std::sin(2.0 * kPi * 5.0 * t);
    monitor.update_accel({t, 0.0, 0.0, sensors::kGravity + shake});
  }
  const auto snap = monitor.snapshot();
  ASSERT_GT(snap.vibration, 2.0);
  ASSERT_LT(snap.vibration, 2.5);
  EXPECT_TRUE(snap.vibrating_environment);
}

TEST(ContextMonitorTest, SnapshotDefaultsToTheInternalClock) {
  ContextMonitor monitor;
  feed_quiet(monitor, 0.0, 3.0);
  monitor.observe_signal(-80.0);
  const auto implicit = monitor.snapshot();
  const auto explicit_now = monitor.snapshot(3.0 - 0.02);
  EXPECT_DOUBLE_EQ(implicit.vibration, explicit_now.vibration);
  EXPECT_EQ(implicit.vibration_health, explicit_now.vibration_health);
  EXPECT_DOUBLE_EQ(implicit.signal_age_s, explicit_now.signal_age_s);
}

TEST(ContextMonitorTest, RecoveryAfterAnOutageRestoresHealth) {
  ContextMonitor monitor;
  feed_quiet(monitor, 0.0, 5.0);
  // Outage: nothing for 60 s, then the stream comes back.
  feed_quiet(monitor, 65.0, 75.0);
  monitor.observe_signal(-72.0);
  const auto snap = monitor.snapshot();
  EXPECT_EQ(snap.vibration_health, ContextHealth::kHealthy);
  EXPECT_GT(snap.vibration_confidence, 0.9);
  EXPECT_NEAR(snap.vibration, 0.0, 0.1);
}

}  // namespace
}  // namespace eacs::core
