#include "eacs/power/battery.h"

#include <gtest/gtest.h>

namespace eacs::power {
namespace {

// Minutes of video playback a full charge sustains at one measured session's
// mean draw (energy over wall-clock seconds).
double video_minutes(double session_energy_j, double session_duration_s) {
  return battery_hours_at(session_energy_j / session_duration_s) * 60.0;
}

TEST(BatteryTest, Nexus5xDefaultsPlausible) {
  // ~2700 mAh * 3.85 V ~ 37.4 kJ, derated by usable*efficiency ~ 0.855.
  EXPECT_NEAR(kBatteryUsableEnergyJ, 31988.0, 100.0);
  // ~2 W video playback -> roughly 4.4 hours.
  EXPECT_NEAR(battery_hours_at(2.0), 4.44, 0.1);
}

TEST(BatteryTest, VideoMinutesScalesInverselyWithPower) {
  // Session A: 600 J over 300 s (2 W); session B: 900 J over 300 s (3 W).
  const double minutes_a = video_minutes(600.0, 300.0);
  const double minutes_b = video_minutes(900.0, 300.0);
  EXPECT_NEAR(minutes_a / minutes_b, 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(video_minutes(0.0, 300.0), 0.0);
}

TEST(BatteryTest, PaperScaleSanity) {
  // Trace 3 (449 s): Youtube ~1363 J, Ours ~977 J. On a Nexus 5X pack that
  // is the difference between ~2.9 and ~4.1 hours of continuous streaming.
  const double youtube_minutes = video_minutes(1363.0, 449.0);
  const double ours_minutes = video_minutes(977.0, 449.0);
  EXPECT_NEAR(youtube_minutes / 60.0, 2.9, 0.3);
  EXPECT_NEAR(ours_minutes / 60.0, 4.1, 0.4);
  EXPECT_GT(ours_minutes - youtube_minutes, 60.0);  // over an hour more video
}

}  // namespace
}  // namespace eacs::power
