#include "eacs/util/filters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace eacs {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(EmaFilterTest, FirstSamplePrimes) {
  EmaFilter filter(0.5);
  EXPECT_FALSE(filter.primed());
  EXPECT_DOUBLE_EQ(filter.update(4.0), 4.0);
  EXPECT_TRUE(filter.primed());
}

TEST(EmaFilterTest, ConvergesToConstant) {
  EmaFilter filter(0.3);
  double y = 0.0;
  for (int i = 0; i < 100; ++i) y = filter.update(10.0);
  EXPECT_NEAR(y, 10.0, 1e-9);
}

TEST(EmaFilterTest, StepResponse) {
  EmaFilter filter(0.5);
  filter.update(0.0);
  EXPECT_DOUBLE_EQ(filter.update(1.0), 0.5);
  EXPECT_DOUBLE_EQ(filter.update(1.0), 0.75);
}

TEST(EmaFilterTest, InvalidAlphaThrows) {
  EXPECT_THROW(EmaFilter(0.0), std::invalid_argument);
  EXPECT_THROW(EmaFilter(1.5), std::invalid_argument);
}

TEST(EmaFilterTest, ResetClearsState) {
  EmaFilter filter(0.5);
  filter.update(7.0);
  filter.reset();
  EXPECT_FALSE(filter.primed());
  EXPECT_DOUBLE_EQ(filter.update(3.0), 3.0);
}

TEST(HighPassFilterTest, RejectsDcImmediately) {
  HighPassFilter filter(0.5, 50.0);
  for (int i = 0; i < 500; ++i) {
    const double y = filter.update(9.81);
    EXPECT_NEAR(y, 0.0, 1e-9);
  }
}

TEST(HighPassFilterTest, PassesHighFrequency) {
  HighPassFilter filter(0.5, 50.0);
  // 10 Hz sine, amplitude 1, sampled at 50 Hz; well above the 0.5 Hz cutoff.
  double peak = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double t = i / 50.0;
    const double y = filter.update(std::sin(2.0 * kPi * 10.0 * t));
    if (i > 100) peak = std::max(peak, std::fabs(y));
  }
  EXPECT_GT(peak, 0.9);
}

TEST(HighPassFilterTest, AttenuatesLowFrequency) {
  HighPassFilter filter(2.0, 50.0);
  // 0.05 Hz sine: far below the 2 Hz cutoff -> strongly attenuated.
  double peak = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double t = i / 50.0;
    const double y = filter.update(std::sin(2.0 * kPi * 0.05 * t));
    if (i > 2000) peak = std::max(peak, std::fabs(y));
  }
  EXPECT_LT(peak, 0.1);
}

TEST(HighPassFilterTest, InvalidParametersThrow) {
  EXPECT_THROW(HighPassFilter(0.0, 50.0), std::invalid_argument);
  EXPECT_THROW(HighPassFilter(30.0, 50.0), std::invalid_argument);  // >= Nyquist
  EXPECT_THROW(HighPassFilter(1.0, 0.0), std::invalid_argument);
  // NaN in either argument, and an infinite rate (coefficient 1: no
  // filtering).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(HighPassFilter(nan, 50.0), std::invalid_argument);
  EXPECT_THROW(HighPassFilter(0.5, nan), std::invalid_argument);
  EXPECT_THROW(HighPassFilter(0.5, inf), std::invalid_argument);
}

TEST(HighPassFilterTest, GravityPlusVibrationKeepsVibration) {
  HighPassFilter filter(0.5, 50.0);
  // Gravity + 3 m/s^2 sine at 5 Hz: the filter should keep ~3 amplitude.
  double peak = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double t = i / 50.0;
    const double y = filter.update(9.81 + 3.0 * std::sin(2.0 * kPi * 5.0 * t));
    if (i > 300) peak = std::max(peak, std::fabs(y));
  }
  EXPECT_NEAR(peak, 3.0, 0.3);
}

TEST(MovingRmsTest, ConstantInput) {
  MovingRms rms(4);
  double y = 0.0;
  for (int i = 0; i < 10; ++i) y = rms.update(2.0);
  EXPECT_NEAR(y, 2.0, 1e-12);
}

TEST(MovingRmsTest, WindowedEviction) {
  MovingRms rms(2);
  rms.update(3.0);
  rms.update(4.0);
  // window = {3, 4}: rms = sqrt(12.5)
  EXPECT_NEAR(rms.value(), std::sqrt(12.5), 1e-12);
  rms.update(0.0);
  // window = {4, 0}: rms = sqrt(8)
  EXPECT_NEAR(rms.value(), std::sqrt(8.0), 1e-12);
}

TEST(MovingRmsTest, SineRmsIsAmplitudeOverSqrt2) {
  MovingRms rms(500);
  double y = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double t = i / 50.0;
    y = rms.update(5.0 * std::sin(2.0 * kPi * 2.0 * t));
  }
  EXPECT_NEAR(y, 5.0 / std::sqrt(2.0), 0.05);
}

TEST(MovingRmsTest, ZeroWindowThrows) {
  EXPECT_THROW(MovingRms(0), std::invalid_argument);
}

TEST(MovingRmsTest, ResetClears) {
  MovingRms rms(3);
  rms.update(5.0);
  rms.reset();
  EXPECT_EQ(rms.count(), 0U);
  EXPECT_DOUBLE_EQ(rms.value(), 0.0);
}

}  // namespace
}  // namespace eacs
