// SensorFaultInjector + SensorHealthMonitor: the sensing-side fault layer.
//
// The injector must be a pure function of (streams, spec) — same inputs,
// bit-identical outputs — and a default spec must pass both streams through
// untouched. Each fault family is checked against its documented semantics.

#include "eacs/sensors/sensor_faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "eacs/sensors/sensor_health.h"

namespace eacs::sensors {
namespace {

AccelTrace quiet_trace(double duration_s, double rate_hz = 50.0) {
  AccelTrace trace;
  const double dt = 1.0 / rate_hz;
  for (double t = 0.0; t < duration_s; t += dt) {
    trace.push_back({t, 0.1, -0.2, kGravity});
  }
  return trace;
}

std::vector<SignalSample> signal_every(double period_s, double duration_s,
                                       double dbm = -85.0) {
  std::vector<SignalSample> readings;
  for (double t = 0.0; t < duration_s; t += period_s) {
    readings.push_back({t, dbm});
  }
  return readings;
}

TEST(SensorFaultInjectorTest, DefaultSpecIsInactivePassthrough) {
  const auto accel = quiet_trace(5.0);
  const auto signal = signal_every(1.0, 5.0);
  const SensorFaultInjector injector(accel, signal, {});
  EXPECT_FALSE(injector.active());
  ASSERT_EQ(injector.accel().size(), accel.size());
  for (std::size_t i = 0; i < accel.size(); ++i) {
    EXPECT_EQ(injector.accel()[i].t_s, accel[i].t_s);
    EXPECT_EQ(injector.accel()[i].x, accel[i].x);
    EXPECT_EQ(injector.accel()[i].y, accel[i].y);
    EXPECT_EQ(injector.accel()[i].z, accel[i].z);
  }
  ASSERT_EQ(injector.signal().size(), signal.size());
  EXPECT_TRUE(injector.accel_schedule().empty());
  EXPECT_TRUE(injector.signal_schedule().empty());
}

TEST(SensorFaultInjectorTest, DropoutRemovesSamplesInsideTheEpisode) {
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kDropout, 1.0, 2.0}};
  const auto accel = quiet_trace(5.0);
  const SensorFaultInjector injector(accel, {}, spec);
  EXPECT_TRUE(injector.active());
  for (const auto& sample : injector.accel()) {
    EXPECT_TRUE(sample.t_s < 1.0 || sample.t_s >= 2.0) << sample.t_s;
  }
  std::size_t outside = 0;
  for (const auto& sample : accel) {
    outside += (sample.t_s < 1.0 || sample.t_s >= 2.0) ? 1 : 0;
  }
  EXPECT_EQ(injector.accel().size(), outside);
  EXPECT_LT(injector.accel().size(), accel.size());
  EXPECT_TRUE(injector.accel_in_fault(1.5));
  EXPECT_FALSE(injector.accel_in_fault(0.5));
  SensorFaultType type;
  ASSERT_TRUE(injector.accel_in_fault(1.0, &type));
  EXPECT_EQ(type, SensorFaultType::kDropout);
}

TEST(SensorFaultInjectorTest, StuckAtRepeatsTheLastGoodReading) {
  AccelTrace accel;
  for (double t = 0.0; t < 4.0; t += 0.02) {
    accel.push_back({t, t, 2.0 * t, kGravity + t});
  }
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kStuckAt, 2.0, 3.0}};
  const SensorFaultInjector injector(accel, {}, spec);
  ASSERT_EQ(injector.accel().size(), accel.size());
  AccelSample last_good{};
  for (std::size_t i = 0; i < accel.size(); ++i) {
    const auto& out = injector.accel()[i];
    EXPECT_EQ(out.t_s, accel[i].t_s);  // timestamps still tick
    if (accel[i].t_s < 2.0) {
      EXPECT_EQ(out.x, accel[i].x);
      last_good = accel[i];
    } else if (accel[i].t_s < 3.0) {
      EXPECT_EQ(out.x, last_good.x) << "t=" << out.t_s;
      EXPECT_EQ(out.y, last_good.y);
      EXPECT_EQ(out.z, last_good.z);
    } else {
      EXPECT_EQ(out.x, accel[i].x);  // recovers after the episode
    }
  }
}

TEST(SensorFaultInjectorTest, StuckAtFromBootFreezesOnTheFirstSample) {
  AccelTrace accel;
  for (double t = 0.0; t < 2.0; t += 0.02) {
    accel.push_back({t, 1.0 + t, 0.0, kGravity});
  }
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kStuckAt, 0.0, 2.0}};
  const SensorFaultInjector injector(accel, {}, spec);
  ASSERT_EQ(injector.accel().size(), accel.size());
  for (const auto& out : injector.accel()) {
    EXPECT_EQ(out.x, accel.front().x);
    EXPECT_EQ(out.z, accel.front().z);
  }
}

TEST(SensorFaultInjectorTest, SaturationPegsAllAxesAtTheRail) {
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kSaturation, 0.0, 10.0}};
  const SensorFaultInjector injector(quiet_trace(5.0), {}, spec);
  for (const auto& sample : injector.accel()) {
    EXPECT_EQ(sample.x, spec.saturation_rail);
    EXPECT_EQ(sample.y, spec.saturation_rail);
    EXPECT_EQ(sample.z, spec.saturation_rail);
  }
}

TEST(SensorFaultInjectorTest, NoiseBurstPerturbsOnlyTheEpisode) {
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kNoiseBurst, 1.0, 2.0}};
  const auto accel = quiet_trace(3.0);
  const SensorFaultInjector injector(accel, {}, spec);
  ASSERT_EQ(injector.accel().size(), accel.size());
  bool any_perturbed = false;
  for (std::size_t i = 0; i < accel.size(); ++i) {
    const auto& out = injector.accel()[i];
    EXPECT_TRUE(std::isfinite(out.x) && std::isfinite(out.y) &&
                std::isfinite(out.z));
    if (accel[i].t_s < 1.0 || accel[i].t_s >= 2.0) {
      EXPECT_EQ(out.x, accel[i].x);
    } else if (out.x != accel[i].x) {
      any_perturbed = true;
    }
  }
  EXPECT_TRUE(any_perturbed);
}

TEST(SensorFaultInjectorTest, NanCorruptionDeliversNonFiniteAxes) {
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kNanCorruption, 0.0, 5.0}};
  spec.nan_prob = 1.0;
  const auto accel = quiet_trace(5.0);
  const SensorFaultInjector injector(accel, {}, spec);
  ASSERT_EQ(injector.accel().size(), accel.size());
  for (const auto& sample : injector.accel()) {
    EXPECT_TRUE(std::isfinite(sample.t_s));  // the timestamp stays sane
    EXPECT_TRUE(std::isnan(sample.x));
    EXPECT_TRUE(std::isnan(sample.y));
    EXPECT_TRUE(std::isnan(sample.z));
  }
}

TEST(SensorFaultInjectorTest, RateCollapseKeepsOneSampleInN) {
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kRateCollapse, 0.0, 10.0}};
  spec.rate_collapse_keep = 10;
  const auto accel = quiet_trace(5.0);
  const SensorFaultInjector injector(accel, {}, spec);
  // Every 10th sample of the episode survives (the first one included).
  const std::size_t expected = (accel.size() + 9) / 10;
  EXPECT_EQ(injector.accel().size(), expected);
}

TEST(SensorFaultInjectorTest, SignalDropoutSuppressesReadingsAndAgesTheLast) {
  SensorFaultSpec spec;
  spec.signal_episodes = {{SensorFaultType::kDropout, 10.0, 40.0}};
  const auto signal = signal_every(5.0, 60.0);
  const SensorFaultInjector injector({}, signal, spec);
  for (const auto& reading : injector.signal()) {
    EXPECT_TRUE(reading.t_s < 10.0 || reading.t_s >= 40.0);
  }
  // Readings at 0 and 5 survive; the next delivered one is t=40.
  EXPECT_DOUBLE_EQ(injector.signal_age_s(30.0), 25.0);
  EXPECT_DOUBLE_EQ(injector.signal_at(30.0), -85.0);
  EXPECT_DOUBLE_EQ(injector.signal_age_s(41.0), 1.0);
}

TEST(SensorFaultInjectorTest, SignalAgeIsInfiniteWhenNothingWasDelivered) {
  SensorFaultSpec spec;
  spec.signal_episodes = {{SensorFaultType::kDropout, 0.0, 100.0}};
  const SensorFaultInjector injector({}, signal_every(5.0, 60.0), spec);
  EXPECT_TRUE(injector.signal().empty());
  EXPECT_TRUE(std::isinf(injector.signal_age_s(30.0)));
  EXPECT_DOUBLE_EQ(injector.signal_at(30.0), -90.0);
}

TEST(SensorFaultInjectorTest, RandomSchedulesAreDeterministicInTheSeed) {
  SensorFaultSpec spec;
  spec.accel_episode_rate_per_min = 6.0;
  spec.signal_dropout_rate_per_min = 2.0;
  const auto accel = quiet_trace(120.0);
  const auto signal = signal_every(5.0, 120.0);
  const SensorFaultInjector a(accel, signal, spec);
  const SensorFaultInjector b(accel, signal, spec);
  ASSERT_EQ(a.accel_schedule().size(), b.accel_schedule().size());
  EXPECT_FALSE(a.accel_schedule().empty());
  for (std::size_t i = 0; i < a.accel_schedule().size(); ++i) {
    EXPECT_EQ(a.accel_schedule()[i].start_s, b.accel_schedule()[i].start_s);
    EXPECT_EQ(a.accel_schedule()[i].end_s, b.accel_schedule()[i].end_s);
    EXPECT_EQ(a.accel_schedule()[i].type, b.accel_schedule()[i].type);
  }
  ASSERT_EQ(a.accel().size(), b.accel().size());

  SensorFaultSpec other = spec;
  other.seed ^= 0xDEADBEEFULL;
  const SensorFaultInjector c(accel, signal, other);
  bool differs = c.accel_schedule().size() != a.accel_schedule().size();
  for (std::size_t i = 0; !differs && i < a.accel_schedule().size(); ++i) {
    differs = c.accel_schedule()[i].start_s != a.accel_schedule()[i].start_s;
  }
  EXPECT_TRUE(differs);
}

TEST(SensorFaultInjectorTest, OverlappingEpisodesAreClippedEarlierWins) {
  SensorFaultSpec spec;
  spec.accel_episodes = {{SensorFaultType::kDropout, 0.0, 2.0},
                         {SensorFaultType::kSaturation, 1.0, 3.0}};
  const SensorFaultInjector injector(quiet_trace(4.0), {}, spec);
  ASSERT_EQ(injector.accel_schedule().size(), 2U);
  EXPECT_DOUBLE_EQ(injector.accel_schedule()[0].end_s, 2.0);
  EXPECT_DOUBLE_EQ(injector.accel_schedule()[1].start_s, 2.0);
  SensorFaultType type;
  ASSERT_TRUE(injector.accel_in_fault(1.5, &type));
  EXPECT_EQ(type, SensorFaultType::kDropout);
}

TEST(SensorFaultInjectorTest, MalformedSpecsThrow) {
  const auto accel = quiet_trace(1.0);
  SensorFaultSpec negative_duration;
  negative_duration.accel_episodes = {{SensorFaultType::kDropout, 2.0, 1.0}};
  EXPECT_THROW(SensorFaultInjector(accel, {}, negative_duration),
               std::invalid_argument);
  SensorFaultSpec bad_prob;
  bad_prob.accel_episodes = {{SensorFaultType::kNanCorruption, 0.0, 1.0}};
  bad_prob.nan_prob = 1.5;
  EXPECT_THROW(SensorFaultInjector(accel, {}, bad_prob), std::invalid_argument);
  SensorFaultSpec zero_keep;
  zero_keep.accel_episodes = {{SensorFaultType::kRateCollapse, 0.0, 1.0}};
  zero_keep.rate_collapse_keep = 0;
  EXPECT_THROW(SensorFaultInjector(accel, {}, zero_keep), std::invalid_argument);

  // A NaN episode rate would read as off, and a NaN mean would be accepted
  // while episodes are drawn: both throw naming the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejected_naming = [&](const SensorFaultSpec& spec,
                                   const std::string& field) {
    try {
      const SensorFaultInjector injector(accel, {}, spec);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what()).find(field) != std::string::npos;
    }
    return false;
  };
  SensorFaultSpec nan_accel_rate;
  nan_accel_rate.accel_episode_rate_per_min = nan;
  EXPECT_TRUE(rejected_naming(nan_accel_rate, "accel_episode_rate_per_min"));
  SensorFaultSpec nan_signal_rate;
  nan_signal_rate.signal_dropout_rate_per_min = nan;
  EXPECT_TRUE(rejected_naming(nan_signal_rate, "signal_dropout_rate_per_min"));
  SensorFaultSpec nan_accel_mean;
  nan_accel_mean.accel_episode_rate_per_min = 2.0;
  nan_accel_mean.accel_episode_mean_s = nan;
  EXPECT_TRUE(rejected_naming(nan_accel_mean, "accel_episode_mean_s"));
  SensorFaultSpec nan_signal_mean;
  nan_signal_mean.signal_dropout_rate_per_min = 2.0;
  nan_signal_mean.signal_dropout_mean_s = nan;
  EXPECT_TRUE(rejected_naming(nan_signal_mean, "signal_dropout_mean_s"));
}

TEST(SensorFaultInjectorTest, NanTimestampsThrowNamingTheSample) {
  // The lookups binary-search the delivered readings by time, which a NaN
  // stamp breaks: with reading 30 (t = 15 s) stamped NaN, signal_at(14.9)
  // would return reading 30's -110 dBm at age 0, not reading 29's -109 dBm
  // at age 0.4. The constructor refuses such a stream and names the sample.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejected_naming = [](const AccelTrace& accel,
                                  const std::vector<SignalSample>& signal,
                                  const std::string& what) {
    try {
      const SensorFaultInjector injector(accel, signal, {});
    } catch (const std::invalid_argument& error) {
      return std::string(error.what()).find(what) != std::string::npos;
    }
    return false;
  };
  std::vector<SignalSample> signal;
  for (int i = 0; i < 60; ++i) {
    signal.push_back({0.5 * i, -80.0 - static_cast<double>(i)});
  }
  const auto accel = quiet_trace(20.0);
  EXPECT_NO_THROW(SensorFaultInjector(accel, signal, {}));

  auto stamped = signal;
  stamped[30].t_s = nan;
  EXPECT_TRUE(rejected_naming(accel, stamped, "signal reading 30 "));
  stamped[45].t_s = nan;  // the first NaN is the one named
  EXPECT_TRUE(rejected_naming(accel, stamped, "signal reading 30 "));

  auto shaky = accel;
  shaky[100].t_s = nan;
  EXPECT_TRUE(rejected_naming(shaky, signal, "accel sample 100 "));
}

// -- SensorHealthMonitor --

TEST(SensorHealthMonitorTest, FreshValidStreamsGradeHealthy) {
  SensorHealthMonitor monitor;
  for (double t = 0.0; t < 2.0; t += 0.02) {
    monitor.observe_accel({t, 0.0, 0.0, kGravity});
  }
  monitor.observe_signal(1.9, -80.0);
  EXPECT_EQ(monitor.accel_health(2.0), ContextHealth::kHealthy);
  EXPECT_EQ(monitor.signal_health(2.0), ContextHealth::kHealthy);
  EXPECT_NEAR(monitor.vibration_confidence(2.0), 1.0, 0.05);
  EXPECT_DOUBLE_EQ(monitor.last_signal_dbm(), -80.0);
}

TEST(SensorHealthMonitorTest, NoDataGradesLost) {
  SensorHealthMonitor monitor;
  EXPECT_EQ(monitor.accel_health(0.0), ContextHealth::kLost);
  EXPECT_EQ(monitor.signal_health(0.0), ContextHealth::kLost);
  EXPECT_DOUBLE_EQ(monitor.vibration_confidence(0.0), 0.0);
  EXPECT_TRUE(std::isinf(monitor.accel_age_s(0.0)));
}

TEST(SensorHealthMonitorTest, StaleAccelDegradesThenLoses) {
  SensorHealthMonitor monitor;
  monitor.observe_accel({0.0, 0.0, 0.0, kGravity});
  using M = SensorHealthMonitor;
  EXPECT_EQ(monitor.accel_health(M::kAccelStaleAfterS / 2.0),
            ContextHealth::kHealthy);
  EXPECT_EQ(monitor.accel_health(M::kAccelStaleAfterS + 0.1),
            ContextHealth::kDegraded);
  EXPECT_EQ(monitor.accel_health(M::kAccelLostAfterS + 0.1),
            ContextHealth::kLost);
  EXPECT_DOUBLE_EQ(monitor.vibration_confidence(M::kAccelLostAfterS + 1.0),
                   0.0);
}

TEST(SensorHealthMonitorTest, AccelAgesGradeAtTheirPinnedBars) {
  SensorHealthMonitor monitor;
  monitor.observe_accel({0.0, 0.0, 0.0, kGravity});
  EXPECT_EQ(monitor.accel_health(0.5), ContextHealth::kHealthy);
  EXPECT_EQ(monitor.accel_health(0.501), ContextHealth::kDegraded);
  EXPECT_EQ(monitor.accel_health(5.0), ContextHealth::kDegraded);
  EXPECT_EQ(monitor.accel_health(5.001), ContextHealth::kLost);
}

TEST(SensorHealthMonitorTest, FreshGarbageIsAsLostAsNoStream) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SensorHealthMonitor monitor;
  for (double t = 0.0; t < 2.0; t += 0.02) {
    monitor.observe_accel({t, nan, nan, nan});
  }
  EXPECT_EQ(monitor.accel_health(2.0), ContextHealth::kLost);
  EXPECT_DOUBLE_EQ(monitor.invalid_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(monitor.vibration_confidence(2.0), 0.0);
}

TEST(SensorHealthMonitorTest, PartialGarbageGradesDegraded) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SensorHealthMonitor monitor;
  std::size_t i = 0;
  for (double t = 0.0; t < 2.0; t += 0.02, ++i) {
    if (i % 2 == 0) {
      monitor.observe_accel({t, nan, 0.0, kGravity});
    } else {
      monitor.observe_accel({t, 0.0, 0.0, kGravity});
    }
  }
  EXPECT_EQ(monitor.accel_health(2.0), ContextHealth::kDegraded);
  EXPECT_NEAR(monitor.invalid_fraction(), 0.5, 0.05);
  EXPECT_GT(monitor.vibration_confidence(2.0), 0.0);
  EXPECT_LT(monitor.vibration_confidence(2.0), 1.0);
}

TEST(SensorHealthMonitorTest, SignalAgesOnItsOwnThresholds) {
  SensorHealthMonitor monitor;
  monitor.observe_signal(0.0, -75.0);
  using M = SensorHealthMonitor;
  EXPECT_EQ(monitor.signal_health(M::kSignalStaleAfterS / 2.0),
            ContextHealth::kHealthy);
  EXPECT_EQ(monitor.signal_health(M::kSignalStaleAfterS + 1.0),
            ContextHealth::kDegraded);
  EXPECT_EQ(monitor.signal_health(M::kSignalLostAfterS + 1.0),
            ContextHealth::kLost);
  EXPECT_DOUBLE_EQ(monitor.signal_age_s(5.0), 5.0);
}

TEST(SensorHealthMonitorTest, SignalAgesGradeAtTheirPinnedBars) {
  SensorHealthMonitor monitor;
  monitor.observe_signal(0.0, -75.0);
  EXPECT_EQ(monitor.signal_health(10.0), ContextHealth::kHealthy);
  EXPECT_EQ(monitor.signal_health(10.001), ContextHealth::kDegraded);
  EXPECT_EQ(monitor.signal_health(60.0), ContextHealth::kDegraded);
  EXPECT_EQ(monitor.signal_health(60.001), ContextHealth::kLost);
}

TEST(SensorHealthMonitorTest, InvalidFractionsGradeAtTheirPinnedBars) {
  // 50 fresh samples (the validity window), the valid ones first: `invalid`
  // of them carry a NaN component.
  const auto grade = [](std::size_t invalid) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    SensorHealthMonitor monitor;
    for (std::size_t i = 0; i < 50; ++i) {
      const double t = 0.02 * static_cast<double>(i);
      monitor.observe_accel({t, i < 50 - invalid ? 0.0 : nan, 0.0, kGravity});
    }
    return monitor.accel_health(1.0);
  };
  EXPECT_EQ(grade(12), ContextHealth::kHealthy);   // 0.24
  EXPECT_EQ(grade(13), ContextHealth::kDegraded);  // 0.26
  EXPECT_EQ(grade(44), ContextHealth::kDegraded);  // 0.88
  EXPECT_EQ(grade(45), ContextHealth::kLost);      // 0.90
}

TEST(SensorHealthMonitorTest, NewestStampedReadingOwnsValueAndAge) {
  // A reading stamped before the newest one is delivered but changes
  // neither the value nor the age.
  SensorHealthMonitor monitor;
  monitor.observe_signal(10.0, -70.0);
  monitor.observe_signal(5.0, -120.0);
  EXPECT_EQ(monitor.signal_readings(), 2U);
  EXPECT_DOUBLE_EQ(monitor.last_signal_dbm(), -70.0);
  EXPECT_DOUBLE_EQ(monitor.signal_age_s(10.0), 0.0);
  EXPECT_DOUBLE_EQ(monitor.signal_age_s(12.0), 2.0);
  // Of equal stamps the later arrival wins, so a sorted stream reads as
  // before; a newer stamp takes over.
  monitor.observe_signal(10.0, -80.0);
  EXPECT_DOUBLE_EQ(monitor.last_signal_dbm(), -80.0);
  monitor.observe_signal(11.0, -85.0);
  EXPECT_DOUBLE_EQ(monitor.last_signal_dbm(), -85.0);
  EXPECT_DOUBLE_EQ(monitor.signal_age_s(12.0), 1.0);
}

TEST(SensorHealthMonitorTest, ResetClears) {
  SensorHealthMonitor monitor;
  monitor.observe_accel({0.0, 0.0, 0.0, kGravity});
  monitor.observe_signal(0.0, -70.0);
  monitor.reset();
  EXPECT_EQ(monitor.accel_samples(), 0U);
  EXPECT_EQ(monitor.signal_readings(), 0U);
  EXPECT_EQ(monitor.accel_health(0.0), ContextHealth::kLost);
  EXPECT_DOUBLE_EQ(monitor.last_signal_dbm(), -90.0);
}

}  // namespace
}  // namespace eacs::sensors
