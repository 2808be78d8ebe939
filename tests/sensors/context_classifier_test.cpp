#include "eacs/sensors/context_classifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <utility>

#include "eacs/trace/accel_gen.h"

namespace eacs::sensors {
namespace {

constexpr double kPi = 3.14159265358979323846;

AccelTrace synthetic(double amplitude, double freq_hz, double duration_s = 20.0) {
  AccelTrace trace;
  const double dt = 1.0 / 50.0;
  for (double t = 0.0; t < duration_s; t += dt) {
    trace.push_back(
        {t, 0.0, 0.0, kGravity + amplitude * std::sin(2.0 * kPi * freq_hz * t)});
  }
  return trace;
}

/// A 20 s, 50 Hz trace of summed (amplitude, frequency) tones.
AccelTrace tones(std::initializer_list<std::pair<double, double>> parts) {
  AccelTrace trace;
  const double dt = 1.0 / 50.0;
  for (double t = 0.0; t < 20.0; t += dt) {
    double z = kGravity;
    for (const auto& [amplitude, freq_hz] : parts) {
      z += amplitude * std::sin(2.0 * kPi * freq_hz * t);
    }
    trace.push_back({t, 0.0, 0.0, z});
  }
  return trace;
}

TEST(GoertzelTest, DetectsPureTone) {
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(std::sin(2.0 * kPi * 5.0 * i / 50.0));
  }
  const double at_tone = goertzel_power(samples, 5.0, 50.0);
  const double off_tone = goertzel_power(samples, 12.0, 50.0);
  EXPECT_GT(at_tone, 50.0 * off_tone);
}

TEST(GoertzelTest, EmptyAndInvalidInputs) {
  EXPECT_DOUBLE_EQ(goertzel_power({}, 5.0, 50.0), 0.0);
  std::vector<double> samples(10, 1.0);
  EXPECT_THROW(goertzel_power(samples, 30.0, 50.0), std::invalid_argument);
  EXPECT_THROW(goertzel_power(samples, -1.0, 50.0), std::invalid_argument);
}

TEST(MotionFeaturesTest, QuietWindowNearZeroRms) {
  const auto trace = synthetic(0.0, 1.0);
  const auto features = compute_motion_features(trace);
  EXPECT_LT(features.rms, 0.05);
}

TEST(MotionFeaturesTest, DominantFrequencyFound) {
  const auto trace = synthetic(2.0, 5.0);
  const auto features = compute_motion_features(trace);
  EXPECT_NEAR(features.dominant_hz, 5.0, 0.3);
  EXPECT_GT(features.rms, 1.0);
}

// Pins the sample rate, high-pass cutoff and scan grid by literal values:
// tones at 1.7, 6, 19 and 21 Hz (the last two on either side of the 20 Hz
// scan ceiling, so moving it either way moves the spread).
TEST(MotionFeaturesTest, FixedWindowFeaturesArePinned) {
  const auto features = compute_motion_features(
      tones({{1.0, 1.7}, {0.5, 6.0}, {0.3, 19.0}, {0.3, 21.0}}));
  EXPECT_NEAR(features.rms, 0.79595207156307768, 1e-12);
  EXPECT_NEAR(features.dominant_hz, 1.7, 1e-9);
  EXPECT_NEAR(features.spectral_spread, 4.5420559382036494, 1e-12);
}

// The scan's bins come from their indices, so the 20 Hz ceiling bin is
// scanned at exactly 20 Hz: a running sum of 0.1 Hz steps reached
// 19.900000000000013 and stopped, and a 20 Hz tone then read 0.1 Hz.
TEST(MotionFeaturesTest, ScanReachesTheCeilingBin) {
  EXPECT_EQ(compute_motion_features(tones({{1.0, 20.0}})).dominant_hz, 20.0);
  EXPECT_EQ(compute_motion_features(tones({{1.0, 2.8}})).dominant_hz, 2.8);
}

TEST(MotionFeaturesTest, EmptyWindow) {
  const auto features = compute_motion_features({});
  EXPECT_DOUBLE_EQ(features.rms, 0.0);
  EXPECT_DOUBLE_EQ(features.dominant_hz, 0.0);
}

TEST(ClassifierTest, StaticWindow) {
  trace::AccelGenerator generator(trace::AccelModel::quiet_room(), 3);
  const auto trace = generator.generate(20.0);
  EXPECT_EQ(classify_window(trace), Context::kStatic);
}

TEST(ClassifierTest, WalkingWindow) {
  trace::AccelGenerator generator(trace::AccelModel::walking(), 5);
  const auto trace = generator.generate(20.0);
  EXPECT_EQ(classify_window(trace), Context::kWalking);
}

TEST(ClassifierTest, VehicleWindow) {
  trace::AccelGenerator generator(trace::AccelModel::moving_vehicle(), 7);
  const auto trace = generator.generate_calibrated(30.0, 6.0);
  EXPECT_EQ(classify_window(trace), Context::kVehicle);
}

TEST(ClassifierTest, VehicleRobustAcrossSeeds) {
  for (std::uint64_t seed = 11; seed < 16; ++seed) {
    trace::AccelGenerator generator(trace::AccelModel::moving_vehicle(), seed);
    const auto trace = generator.generate_calibrated(30.0, 5.5);
    EXPECT_EQ(classify_window(trace), Context::kVehicle) << "seed " << seed;
  }
}

TEST(ClassifierTest, WalkingRobustAcrossSeeds) {
  for (std::uint64_t seed = 21; seed < 26; ++seed) {
    trace::AccelGenerator generator(trace::AccelModel::walking(), seed);
    const auto trace = generator.generate(20.0);
    EXPECT_EQ(classify_window(trace), Context::kWalking) << "seed " << seed;
  }
}

// Table V anchors: the five evaluation sessions' average vibration levels
// (6.83, 2.46, 6.61, 6.41, 5.23 m/s^2). The on_vehicle threshold in the
// evaluation pipeline is 4.0 m/s^2, so sessions 1/3/4/5 must classify as
// vehicle and session 2 (the smooth ride) must not.
TEST(ClassifierTest, TableVVehicleSessionsClassifyAsVehicle) {
  const double vehicle_vibrations[] = {6.83, 6.61, 6.41, 5.23};
  for (const double vibration : vehicle_vibrations) {
    trace::AccelGenerator generator(trace::AccelModel::moving_vehicle(), 31);
    const auto trace = generator.generate_calibrated(30.0, vibration);
    EXPECT_EQ(classify_window(trace), Context::kVehicle)
        << "vibration " << vibration;
  }
}

TEST(ClassifierTest, TableVSmoothSessionIsNotVehicle) {
  // Session 2 averages 2.46 m/s^2 — below the 4.0 on_vehicle threshold. At
  // walking-level energy with a walking spectrum it must classify as walking,
  // never vehicle.
  trace::AccelGenerator generator(trace::AccelModel::walking(), 37);
  const auto trace = generator.generate_calibrated(30.0, 2.46);
  EXPECT_NE(classify_window(trace), Context::kVehicle);
}

TEST(ClassifierTest, CalibratedVibrationNearTarget) {
  // generate_calibrated must actually hit the requested RMS, otherwise the
  // Table V anchors above test the wrong stimulus.
  for (const double target : {2.46, 5.23, 6.83}) {
    trace::AccelGenerator generator(trace::AccelModel::moving_vehicle(), 41);
    const auto trace = generator.generate_calibrated(30.0, target);
    const auto features = compute_motion_features(trace);
    EXPECT_NEAR(features.rms, target, 0.15 * target) << "target " << target;
  }
}

// Pins the detector thresholds by their edges: each pair of windows sits on
// either side of one threshold, 0.1 Hz or a few hundredths from it, and a
// tone on a band edge lands inside the closed band.
TEST(ClassifierTest, ThresholdEdgesArePinned) {
  // Static below an RMS of 0.25 m/s^2 (2 Hz tones reading 0.233 and 0.266).
  EXPECT_EQ(classify_window(tones({{0.35, 2.0}})), Context::kStatic);
  EXPECT_EQ(classify_window(tones({{0.40, 2.0}})), Context::kWalking);
  // The walking cadence band is [1.2, 2.8] Hz.
  EXPECT_EQ(classify_window(tones({{1.0, 1.1}})), Context::kVehicle);
  EXPECT_EQ(classify_window(tones({{1.0, 1.2}})), Context::kWalking);
  EXPECT_EQ(classify_window(tones({{1.0, 1.3}})), Context::kWalking);
  EXPECT_EQ(classify_window(tones({{1.0, 2.7}})), Context::kWalking);
  EXPECT_EQ(classify_window(tones({{1.0, 2.8}})), Context::kWalking);
  EXPECT_EQ(classify_window(tones({{1.0, 2.9}})), Context::kVehicle);
  // Walking is narrowband: a 6 Hz overtone spreads a 2 Hz cadence past the
  // 1.8 Hz bar between these two amplitudes.
  const auto narrow = tones({{1.0, 2.0}, {0.55, 6.0}});
  const auto broad = tones({{1.0, 2.0}, {0.65, 6.0}});
  EXPECT_NEAR(compute_motion_features(narrow).spectral_spread, 1.71, 0.01);
  EXPECT_NEAR(compute_motion_features(broad).spectral_spread, 1.86, 0.02);
  EXPECT_EQ(classify_window(narrow), Context::kWalking);
  EXPECT_EQ(classify_window(broad), Context::kVehicle);
}

TEST(ClassifierTest, ToStringLabels) {
  EXPECT_STREQ(to_string(Context::kStatic), "static");
  EXPECT_STREQ(to_string(Context::kWalking), "walking");
  EXPECT_STREQ(to_string(Context::kVehicle), "vehicle");
}

}  // namespace
}  // namespace eacs::sensors
