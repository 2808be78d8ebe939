#include "eacs/power/monsoon.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "eacs/power/validation.h"

namespace eacs::power {
namespace {

MonsoonConfig fast_channel() {
  MonsoonConfig config;
  config.sample_rate_hz = 500.0;  // keep unit tests quick
  return config;
}

TEST(MonsoonSimulatorTest, IntegratesConstantPower) {
  MonsoonConfig config = fast_channel();
  config.noise_sd_w = 0.0;
  config.ripple_w = 0.0;
  config.drift_w = 0.0;
  MonsoonSimulator monsoon(config, PowerModel{});
  // 10 s of pure playback at 3 Mbps.
  std::vector<ActivityInterval> timeline = {
      {0.0, 10.0, true, 3.0, false, -90.0, 0.0}};
  const double expected = PowerModel{}.playback_power(3.0) * 10.0;
  EXPECT_NEAR(monsoon.measure_energy(timeline), expected, expected * 0.01);
}

TEST(MonsoonSimulatorTest, DownloadIntervalsCostMore) {
  MonsoonConfig config = fast_channel();
  MonsoonSimulator monsoon(config, PowerModel{});
  std::vector<ActivityInterval> idle = {{0.0, 20.0, true, 3.0, false, -90.0, 0.0}};
  std::vector<ActivityInterval> busy = {{0.0, 20.0, true, 3.0, true, -90.0, 20.0}};
  MonsoonSimulator monsoon2(config, PowerModel{});
  EXPECT_GT(monsoon2.measure_energy(busy), monsoon.measure_energy(idle) + 10.0);
}

TEST(MonsoonSimulatorTest, PauseIntervalUsesPausePower) {
  MonsoonConfig config = fast_channel();
  config.noise_sd_w = 0.0;
  config.ripple_w = 0.0;
  config.drift_w = 0.0;
  MonsoonSimulator monsoon(config, PowerModel{});
  std::vector<ActivityInterval> stalled = {{0.0, 4.0, false, 0.0, false, -90.0, 0.0}};
  EXPECT_NEAR(monsoon.measure_energy(stalled), PowerModel{}.pause_power() * 4.0, 0.1);
}

TEST(MonsoonSimulatorTest, EmptyIntervalThrows) {
  MonsoonSimulator monsoon(fast_channel(), PowerModel{});
  std::vector<ActivityInterval> bad = {{5.0, 5.0, true, 1.0, false, -90.0, 0.0}};
  EXPECT_THROW(monsoon.measure_energy(bad), std::invalid_argument);
}

TEST(MonsoonSimulatorTest, BadSampleRateThrows) {
  MonsoonConfig config;
  config.sample_rate_hz = 0.0;
  EXPECT_THROW(MonsoonSimulator(config, PowerModel{}), std::invalid_argument);
}

TEST(ValidationTest, TableVIErrorsUnderThreePercent) {
  ValidationConfig config;
  config.monsoon.sample_rate_hz = 1000.0;  // faster than 5 kHz, same physics
  const auto rows =
      validate_power_model(PowerModel{}, media::BitrateLadder::table2(), config);
  ASSERT_EQ(rows.size(), 6U);
  for (const auto& row : rows) {
    EXPECT_LT(row.error_ratio, 0.03) << "bitrate " << row.bitrate_mbps;
    EXPECT_GT(row.measured_j, 500.0);
    EXPECT_LT(row.measured_j, 800.0);
  }
  EXPECT_LT(mean_error_ratio(rows), 0.02);
}

TEST(ValidationTest, MeasuredEnergyOrderedByBitrate) {
  ValidationConfig config;
  config.monsoon.sample_rate_hz = 500.0;
  const auto rows =
      validate_power_model(PowerModel{}, media::BitrateLadder::table2(), config);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].calculated_j, rows[i - 1].calculated_j);
  }
}

TEST(ValidationTest, BadConfigThrows) {
  ValidationConfig config;
  config.video_duration_s = 0.0;
  EXPECT_THROW(validate_power_model(PowerModel{}, media::BitrateLadder::table2(), config),
               std::invalid_argument);
}

TEST(ValidationTest, MeanErrorRatioEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean_error_ratio({}), 0.0);
}

}  // namespace
}  // namespace eacs::power
