#include "eacs/sensors/vibration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "eacs/media/catalogue.h"
#include "eacs/sensors/accel.h"
#include "eacs/trace/session.h"
#include "eacs/util/filters.h"

namespace eacs::sensors {
namespace {

constexpr double kPi = 3.14159265358979323846;

AccelTrace constant_gravity_trace(double duration_s, double rate_hz = 50.0) {
  AccelTrace trace;
  const double dt = 1.0 / rate_hz;
  for (double t = 0.0; t < duration_s; t += dt) {
    trace.push_back({t, 0.0, 0.0, kGravity});
  }
  return trace;
}

AccelTrace vibrating_trace(double amplitude, double freq_hz, double duration_s,
                           double rate_hz = 50.0) {
  AccelTrace trace;
  const double dt = 1.0 / rate_hz;
  for (double t = 0.0; t < duration_s; t += dt) {
    trace.push_back(
        {t, 0.0, 0.0, kGravity + amplitude * std::sin(2.0 * kPi * freq_hz * t)});
  }
  return trace;
}

TEST(AccelSampleTest, Magnitude) {
  AccelSample sample{0.0, 3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(sample.magnitude(), 5.0);
}

TEST(VibrationEstimatorTest, QuietGravityIsNearZero) {
  const auto trace = constant_gravity_trace(20.0);
  EXPECT_NEAR(vibration_level(trace), 0.0, 1e-6);
}

TEST(VibrationEstimatorTest, SinusoidGivesRmsLevel) {
  // 5 Hz sine of amplitude A on top of gravity: gravity is removed by the
  // high-pass, the AC RMS is A/sqrt(2).
  const double amplitude = 4.0;
  const auto trace = vibrating_trace(amplitude, 5.0, 30.0);
  const double level = vibration_level(trace);
  EXPECT_NEAR(level, amplitude / std::sqrt(2.0), 0.25);
}

TEST(VibrationEstimatorTest, LevelGrowsWithAmplitude) {
  const double small = vibration_level(vibrating_trace(1.0, 5.0, 30.0));
  const double large = vibration_level(vibrating_trace(6.0, 5.0, 30.0));
  EXPECT_GT(large, 4.0 * small);
}

TEST(VibrationEstimatorTest, WindowForgetsOldVibration) {
  // 30 s of heavy vibration followed by 30 s of stillness: the 6 s trailing
  // window must come back near zero.
  AccelTrace trace = vibrating_trace(5.0, 5.0, 30.0);
  const double dt = 1.0 / 50.0;
  for (double t = 30.0; t < 60.0; t += dt) {
    trace.push_back({t, 0.0, 0.0, kGravity});
  }
  EXPECT_LT(vibration_level(trace), 0.3);
}

TEST(VibrationEstimatorTest, StreamingMatchesBatch) {
  const auto trace = vibrating_trace(3.0, 4.0, 25.0);
  VibrationEstimator estimator;
  for (const auto& sample : trace) estimator.update(sample);
  EXPECT_DOUBLE_EQ(estimator.level(), vibration_level(trace));
  EXPECT_EQ(estimator.samples_seen(), trace.size());
}

TEST(VibrationEstimatorTest, ResetClears) {
  VibrationEstimator estimator;
  estimator.update({0.0, 0.0, 0.0, 15.0});
  estimator.reset();
  EXPECT_DOUBLE_EQ(estimator.level(), 0.0);
  EXPECT_EQ(estimator.samples_seen(), 0U);
}

TEST(VibrationEstimatorTest, ConfigWindowSamples) {
  VibrationConfig config;
  config.window_s = 6.0;
  config.sample_rate_hz = 50.0;
  EXPECT_EQ(config.window_samples(), 300U);
  config.window_s = 0.001;
  EXPECT_EQ(config.window_samples(), 1U);
  // Rounded, not truncated: the product reads 28.999999999999996.
  config.window_s = 0.29;
  config.sample_rate_hz = 100.0;
  EXPECT_EQ(config.window_samples(), 29U);
}

TEST(VibrationEstimatorTest, InvalidConfigThrows) {
  VibrationConfig config;
  config.window_s = -1.0;
  EXPECT_THROW(VibrationEstimator{config}, std::invalid_argument);
  // Each field's bad values throw before the filters are sized, naming the
  // field. A NaN rate used to escape as std::length_error from the window's
  // allocation; a NaN cutoff read 0 on a vibrating stream; a NaN quiet time
  // or prior, or a negative time constant, made level_at() non-finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    double VibrationConfig::*field;
    double value;
    const char* name;
  };
  const Bad cases[] = {
      {&VibrationConfig::window_s, nan, "window_s"},
      {&VibrationConfig::window_s, 0.0, "window_s"},
      {&VibrationConfig::window_s, inf, "window_s"},
      {&VibrationConfig::sample_rate_hz, nan, "sample_rate_hz"},
      {&VibrationConfig::sample_rate_hz, -50.0, "sample_rate_hz"},
      {&VibrationConfig::sample_rate_hz, inf, "sample_rate_hz"},
      // 1e300 s at 50 Hz is no representable sample count.
      {&VibrationConfig::window_s, 1e300, "window_s * sample_rate_hz"},
      {&VibrationConfig::highpass_cutoff_hz, nan, "highpass_cutoff_hz"},
      {&VibrationConfig::highpass_cutoff_hz, 0.0, "highpass_cutoff_hz"},
      {&VibrationConfig::highpass_cutoff_hz, 25.0, "highpass_cutoff_hz"},
      {&VibrationConfig::highpass_cutoff_hz, inf, "highpass_cutoff_hz"},
      {&VibrationConfig::quiet_after_s, nan, "quiet_after_s"},
      {&VibrationConfig::quiet_after_s, -1.0, "quiet_after_s"},
      {&VibrationConfig::quiet_after_s, inf, "quiet_after_s"},
      {&VibrationConfig::prior_vibration, nan, "prior_vibration"},
      {&VibrationConfig::prior_vibration, -0.5, "prior_vibration"},
      {&VibrationConfig::prior_vibration, inf, "prior_vibration"},
      {&VibrationConfig::prior_tau_s, nan, "prior_tau_s"},
      {&VibrationConfig::prior_tau_s, 0.0, "prior_tau_s"},
      {&VibrationConfig::prior_tau_s, -1.0, "prior_tau_s"},
      {&VibrationConfig::prior_tau_s, inf, "prior_tau_s"},
  };
  for (const Bad& bad : cases) {
    VibrationConfig config;
    config.*bad.field = bad.value;
    try {
      const VibrationEstimator estimator{config};
      ADD_FAILURE() << bad.name << " = " << bad.value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(bad.name), std::string::npos)
          << error.what();
    }
  }
  // The defaults and the zero quiet time and prior stay valid.
  EXPECT_NO_THROW(VibrationEstimator{VibrationConfig{}});
  VibrationConfig edges;
  edges.quiet_after_s = 0.0;
  edges.prior_vibration = 0.0;
  EXPECT_NO_THROW(VibrationEstimator{edges});
}

/// The estimator's steps one sample at a time on the filters' own per-sample
/// updates: the oracle for the batch kernel.
struct PerSampleChain {
  explicit PerSampleChain(const VibrationConfig& config)
      : highpass(config.highpass_cutoff_hz, config.sample_rate_hz),
        rms(config.window_samples()) {}

  void update(const AccelSample& sample) {
    ++seen;
    if (!std::isfinite(sample.x) || !std::isfinite(sample.y) ||
        !std::isfinite(sample.z)) {
      ++rejected;
      return;
    }
    level = rms.update(highpass.update(sample.magnitude()));
  }

  eacs::HighPassFilter highpass;
  eacs::MovingRms rms;
  std::size_t seen = 0;
  std::size_t rejected = 0;
  double level = 0.0;
};

TEST(VibrationBatchTest, ConsumeMatchesPerSampleUpdates) {
  // A noisy vibrating stream with NaN and infinite axes, non-finite and
  // out-of-order timestamps, cut into runs at random points (empty runs
  // included). After every run, the batch-fed estimator must hold exactly
  // the per-sample chain's level and counters, and the same level_at() as
  // an estimator fed by update() one sample at a time.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(20240611);
  std::uniform_real_distribution<double> noise(-0.5, 0.5);
  std::uniform_int_distribution<int> kind(0, 39);
  AccelTrace trace;
  for (std::size_t k = 0; k < 4000; ++k) {
    const double t = 0.02 * static_cast<double>(k);
    AccelSample sample{t, noise(rng),
                       noise(rng) + 3.0 * std::sin(2.0 * kPi * 4.0 * t),
                       kGravity + noise(rng)};
    switch (kind(rng)) {
      case 0: sample.x = nan; break;
      case 1: sample.y = inf; break;
      case 2: sample.z = -inf; break;
      case 3: sample.t_s = nan; break;   // valid axes, no time
      case 4: sample.t_s = -inf; break;  // valid axes, no time
      case 5: sample.t_s = t - 3.0; break;  // late sample: the max rule
      default: break;
    }
    trace.push_back(sample);
  }

  // Window 1 (every sample replaces the only slot), a 7-sample window whose
  // runs are also cut at the fill-to-wrap edge, and the default 300.
  std::vector<VibrationConfig> configs(3);
  configs[0].window_s = 0.02;
  configs[1].window_s = 0.14;
  ASSERT_EQ(configs[0].window_samples(), 1U);
  ASSERT_EQ(configs[1].window_samples(), 7U);
  for (const VibrationConfig& config : configs) {
    std::vector<std::size_t> cuts = {0, 0, 6, 7, 8, 13, 14, 14, 15,
                                     299, 300, 301, trace.size()};
    std::uniform_int_distribution<std::size_t> cut(0, trace.size());
    for (int k = 0; k < 200; ++k) cuts.push_back(cut(rng));
    std::sort(cuts.begin(), cuts.end());

    VibrationEstimator batched(config);
    VibrationEstimator stepped(config);
    PerSampleChain chain(config);
    std::size_t begin = 0;
    for (const std::size_t end : cuts) {
      const std::span<const AccelSample> run(trace.data() + begin, end - begin);
      const double level = batched.consume(run);
      for (const AccelSample& sample : run) {
        stepped.update(sample);
        chain.update(sample);
      }
      begin = end;
      ASSERT_EQ(level, chain.level) << "after " << end << " samples";
      EXPECT_EQ(batched.level(), chain.level);
      EXPECT_EQ(batched.samples_seen(), chain.seen);
      EXPECT_EQ(batched.rejected_samples(), chain.rejected);
      EXPECT_EQ(stepped.level(), chain.level);
      for (const double now : {0.0, 0.02 * static_cast<double>(end), 1e3}) {
        EXPECT_EQ(batched.level_at(now), stepped.level_at(now)) << now;
      }
    }
    EXPECT_EQ(batched.samples_seen(), trace.size());
    EXPECT_GT(batched.rejected_samples(), 0U);
  }
}

TEST(VibrationTrackTest, LevelAfterEveryPrefixMatchesTheEstimator) {
  // The first 1500 samples of Table V session 1's trace with non-finite axes
  // injected. Every prefix length is read, in shuffled order with repeats,
  // so reads land behind the fill and ahead of it; a second track is read
  // forward in short random strides, each followed by a read back. Every
  // read must hold the bits a fresh estimator returns after consuming that
  // prefix in one run.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const trace::SessionTraces session =
      trace::build_session(media::evaluation_sessions().front());
  AccelTrace trace(session.accel.begin(), session.accel.begin() + 1500);
  for (std::size_t k = 0; k < trace.size(); k += 37) trace[k].x = nan;
  for (std::size_t k = 11; k < trace.size(); k += 53) trace[k].y = inf;
  for (std::size_t k = 29; k < trace.size(); k += 91) trace[k].z = -inf;

  // Windows of 1, 7 and the default 300 samples.
  std::vector<VibrationConfig> configs(3);
  configs[0].window_s = 0.02;
  configs[1].window_s = 0.14;
  ASSERT_EQ(configs[0].window_samples(), 1U);
  ASSERT_EQ(configs[1].window_samples(), 7U);
  std::mt19937_64 rng(20261018);
  for (const VibrationConfig& config : configs) {
    std::vector<double> expected(trace.size() + 1);
    for (std::size_t k = 0; k <= trace.size(); ++k) {
      expected[k] = VibrationEstimator(config).consume({trace.data(), k});
    }

    std::vector<std::size_t> reads(trace.size() + 1);
    std::iota(reads.begin(), reads.end(), std::size_t{0});
    for (std::size_t k = 0; k <= trace.size(); k += 7) reads.push_back(k);
    std::shuffle(reads.begin(), reads.end(), rng);
    VibrationTrack shuffled(trace, config);
    for (const std::size_t k : reads) {
      ASSERT_EQ(shuffled.level_after(k), expected[k]) << "after " << k;
    }

    VibrationTrack strided(trace, config);
    std::uniform_int_distribution<std::size_t> stride(0, 40);
    for (std::size_t k = 0; k <= trace.size(); k += stride(rng)) {
      ASSERT_EQ(strided.level_after(k), expected[k]) << "after " << k;
      const std::size_t back = std::uniform_int_distribution<std::size_t>(0, k)(rng);
      ASSERT_EQ(strided.level_after(back), expected[back]) << "after " << back;
    }
    EXPECT_EQ(strided.level_after(trace.size()), expected.back());
    EXPECT_EQ(strided.level_after(0), 0.0);
    EXPECT_THROW(strided.level_after(trace.size() + 1), std::out_of_range);
    EXPECT_EQ(&strided.trace(), &trace);
    EXPECT_TRUE(strided.config() == config);
  }
}

TEST(MeanVibrationTest, StationarySignalMeanNearFinal) {
  const auto trace = vibrating_trace(4.0, 5.0, 60.0);
  const double mean_level = mean_vibration_level(trace);
  const double final_level = vibration_level(trace);
  EXPECT_NEAR(mean_level, final_level, 0.3);
}

TEST(MeanVibrationTest, ShortTraceFallsBack) {
  const auto trace = vibrating_trace(4.0, 5.0, 2.0);  // shorter than the window
  EXPECT_GT(mean_vibration_level(trace), 0.0);
}

TEST(VibrationEstimatorTest, NonFiniteSamplesAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  VibrationEstimator estimator;
  const auto trace = vibrating_trace(4.0, 5.0, 10.0);
  for (const auto& sample : trace) {
    estimator.update(sample);
  }
  const double before = estimator.level();
  EXPECT_DOUBLE_EQ(estimator.update({10.0, nan, 0.0, kGravity}), before);
  EXPECT_DOUBLE_EQ(estimator.update({10.02, 0.0, inf, kGravity}), before);
  EXPECT_DOUBLE_EQ(estimator.update({10.04, 0.0, 0.0, -inf}), before);
  EXPECT_DOUBLE_EQ(estimator.level(), before);
  EXPECT_EQ(estimator.rejected_samples(), 3U);
  EXPECT_EQ(estimator.samples_seen(), trace.size() + 3);  // valid + rejected
}

TEST(VibrationEstimatorTest, NanDoesNotPoisonTheWindow) {
  // A single NaN used to poison the trailing RMS window for a full
  // window_samples() updates. With rejection, an estimator that saw NaNs
  // interleaved into the stream must match one that never saw them.
  const auto trace = vibrating_trace(4.0, 5.0, 20.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  VibrationEstimator with_nans;
  VibrationEstimator clean;
  for (const auto& sample : trace) {
    with_nans.update(sample);
    with_nans.update({sample.t_s, nan, nan, nan});
    clean.update(sample);
  }
  EXPECT_DOUBLE_EQ(with_nans.level(), clean.level());
  EXPECT_TRUE(std::isfinite(with_nans.level()));
  EXPECT_EQ(with_nans.rejected_samples(), trace.size());
}

TEST(VibrationEstimatorTest, LevelAtReturnsPriorBeforeAnyValidSample) {
  VibrationEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.level_at(0.0), estimator.config().prior_vibration);
  // An all-NaN stream never yields a valid sample: still the prior.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double t = 0.0; t < 5.0; t += 0.02) {
    estimator.update({t, nan, nan, nan});
  }
  EXPECT_DOUBLE_EQ(estimator.level_at(5.0), estimator.config().prior_vibration);
  EXPECT_TRUE(std::isfinite(estimator.level_at(5.0)));
}

TEST(VibrationEstimatorTest, LevelAtDecaysTowardPriorWhenStreamGoesQuiet) {
  VibrationEstimator estimator;
  for (const auto& sample : constant_gravity_trace(10.0)) {
    estimator.update(sample);
  }
  const double fresh = estimator.level_at(10.0);
  EXPECT_NEAR(fresh, estimator.level(), 1e-12);  // fresh: raw level (near 0)
  // Stale by much more than quiet_after_s + several tau: essentially the prior.
  const double stale = estimator.level_at(10.0 + 100.0);
  EXPECT_NEAR(stale, estimator.config().prior_vibration, 1e-3);
  // In between: strictly between the raw level and the prior.
  const double mid = estimator.level_at(10.0 + 7.0);
  EXPECT_GT(mid, fresh);
  EXPECT_LT(mid, estimator.config().prior_vibration);
}

TEST(VibrationEstimatorTest, HandlesXyVibrationToo) {
  // Vibration on the x axis changes |a| and must register (less efficiently
  // than z because gravity dominates the magnitude direction).
  AccelTrace trace;
  const double dt = 1.0 / 50.0;
  for (double t = 0.0; t < 30.0; t += dt) {
    trace.push_back({t, 6.0 * std::sin(2.0 * kPi * 5.0 * t), 0.0, kGravity});
  }
  EXPECT_GT(vibration_level(trace), 0.5);
}

}  // namespace
}  // namespace eacs::sensors
