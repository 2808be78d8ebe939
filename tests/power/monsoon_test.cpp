#include "eacs/power/monsoon.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

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
  // +inf would make the sampling step 0 (measure_energy would never return)
  // and NaN would skip every sample; both are rejected by name.
  for (const double rate : {0.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    MonsoonConfig config;
    config.sample_rate_hz = rate;
    try {
      MonsoonSimulator monsoon(config, PowerModel{});
      ADD_FAILURE() << "no throw at sample_rate_hz " << rate;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("sample_rate_hz"), std::string::npos)
          << error.what();
    }
  }
}

TEST(ValidationTest, TableVIErrorsUnderThreePercent) {
  MonsoonConfig channel;
  channel.sample_rate_hz = 1000.0;  // faster than 5 kHz, same physics
  const auto rows =
      validate_power_model(PowerModel{}, media::BitrateLadder::table2(), channel);
  ASSERT_EQ(rows.size(), 6U);
  for (const auto& row : rows) {
    EXPECT_LT(row.error_ratio, 0.03) << "bitrate " << row.bitrate_mbps;
    EXPECT_GT(row.measured_j, 500.0);
    EXPECT_LT(row.measured_j, 800.0);
  }
  EXPECT_LT(mean_error_ratio(rows), 0.02);
}

TEST(ValidationTest, MeasuredEnergyOrderedByBitrate) {
  const auto rows = validate_power_model(PowerModel{}, media::BitrateLadder::table2(),
                                         fast_channel());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].calculated_j, rows[i - 1].calculated_j);
  }
}

// Pins the Table VI setup (300 s clip, 2 s segments, -90 dBm, 20 Mbps) by
// literal values: the six rows at 500 Hz sampling. The throughput moves only
// the measured column (it sets how long each download interval lasts).
TEST(ValidationTest, TableVIRowsArePinned) {
  const auto rows = validate_power_model(PowerModel{}, media::BitrateLadder::table2(),
                                         fast_channel());
  struct Row {
    double bitrate_mbps, measured_j, calculated_j;
  };
  const Row want[] = {
      {0.1, 585.090398939226, 590.0175},   {0.375, 598.443167937867, 595.565625},
      {0.75, 598.520461420061, 603.13125}, {1.5, 618.852255337045, 618.2625},
      {3.0, 643.810244228067, 648.525},    {5.8, 700.192595583854, 705.015},
  };
  ASSERT_EQ(rows.size(), 6U);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i].bitrate_mbps, want[i].bitrate_mbps);
    EXPECT_NEAR(rows[i].measured_j, want[i].measured_j, 1e-9) << "row " << i;
    EXPECT_NEAR(rows[i].calculated_j, want[i].calculated_j, 1e-9) << "row " << i;
  }
}

TEST(ValidationTest, MeanErrorRatioEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean_error_ratio({}), 0.0);
}

}  // namespace
}  // namespace eacs::power
