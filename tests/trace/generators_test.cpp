#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "eacs/sensors/vibration.h"
#include "eacs/trace/accel_gen.h"
#include "eacs/trace/session.h"
#include "eacs/trace/signal_gen.h"
#include "eacs/trace/throughput_gen.h"
#include "eacs/util/stats.h"

namespace eacs::trace {
namespace {

TEST(SignalGeneratorTest, DeterministicPerSeed) {
  SignalStrengthGenerator a(SignalModel::quiet_room(), 5);
  SignalStrengthGenerator b(SignalModel::quiet_room(), 5);
  const auto ta = a.generate(60.0);
  const auto tb = b.generate(60.0);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta.at(i).value, tb.at(i).value);
  }
}

TEST(SignalGeneratorTest, RoomIsStrongerAndSteadierThanVehicle) {
  SignalStrengthGenerator room(SignalModel::quiet_room(), 7);
  SignalStrengthGenerator vehicle(SignalModel::moving_vehicle(), 7);
  const auto room_values = room.generate(600.0).values();
  const auto vehicle_values = vehicle.generate(600.0).values();
  EXPECT_GT(eacs::mean(room_values), eacs::mean(vehicle_values) + 10.0);
  EXPECT_LT(eacs::stddev(room_values), eacs::stddev(vehicle_values));
}

TEST(SignalGeneratorTest, ValuesClamped) {
  SignalModel model = SignalModel::moving_vehicle();
  model.volatility = 20.0;  // extreme volatility to hit the clamps
  SignalStrengthGenerator generator(model, 11);
  // Bind the series: samples() returns a reference into it, and a range-for
  // over generate(...).samples() would iterate a destroyed temporary.
  const auto series = generator.generate(300.0);
  for (const auto& point : series.samples()) {
    EXPECT_GE(point.value, model.min_dbm);
    EXPECT_LE(point.value, model.max_dbm);
  }
}

TEST(SignalGeneratorTest, BlendedInterpolates) {
  const auto zero = SignalModel::blended(0.0);
  const auto one = SignalModel::blended(1.0);
  const auto half = SignalModel::blended(0.5);
  EXPECT_DOUBLE_EQ(zero.mean_dbm, SignalModel::quiet_room().mean_dbm);
  EXPECT_DOUBLE_EQ(one.mean_dbm, SignalModel::moving_vehicle().mean_dbm);
  EXPECT_LT(one.mean_dbm, half.mean_dbm);
  EXPECT_LT(half.mean_dbm, zero.mean_dbm);
}

TEST(SignalGeneratorTest, InvalidInputsThrow) {
  SignalModel model;
  model.reversion_rate = 0.0;
  EXPECT_THROW(SignalStrengthGenerator(model, 1), std::invalid_argument);
  SignalStrengthGenerator ok(SignalModel::quiet_room(), 1);
  EXPECT_THROW(ok.generate(-1.0), std::invalid_argument);
  EXPECT_THROW(ok.generate(10.0, 0.0), std::invalid_argument);
}

TEST(ThroughputModelTest, CapacityFallsWithSignal) {
  const ThroughputModel model;
  EXPECT_GT(model.capacity_mbps(-80.0), model.capacity_mbps(-95.0));
  EXPECT_GT(model.capacity_mbps(-95.0), model.capacity_mbps(-110.0));
  // Halves per halving_db of extra path loss.
  const double at_90 = model.capacity_mbps(-90.0);
  const double at_halved = model.capacity_mbps(-90.0 - model.halving_db);
  EXPECT_NEAR(at_90 / at_halved, 2.0, 0.01);
}

TEST(ThroughputModelTest, CapacityClamped) {
  const ThroughputModel model;
  EXPECT_DOUBLE_EQ(model.capacity_mbps(-200.0), model.min_mbps);
  EXPECT_DOUBLE_EQ(model.capacity_mbps(-20.0), model.max_mbps);
}

TEST(ThroughputGeneratorTest, AlignedWithSignalTrace) {
  SignalStrengthGenerator signal_gen(SignalModel::quiet_room(), 13);
  const auto signal = signal_gen.generate(120.0);
  ThroughputGenerator throughput_gen(ThroughputModel{}, 13);
  const auto throughput = throughput_gen.generate(signal);
  ASSERT_EQ(throughput.size(), signal.size());
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    EXPECT_DOUBLE_EQ(throughput.at(i).t_s, signal.at(i).t_s);
    EXPECT_GT(throughput.at(i).value, 0.0);
  }
}

TEST(ThroughputGeneratorTest, WeakSignalMeansLessBandwidth) {
  SignalStrengthGenerator room_signal(SignalModel::quiet_room(), 17);
  SignalStrengthGenerator vehicle_signal(SignalModel::moving_vehicle(), 17);
  ThroughputGenerator gen_a(ThroughputModel{}, 19);
  ThroughputGenerator gen_b(ThroughputModel{}, 19);
  const auto room = gen_a.generate(room_signal.generate(600.0)).values();
  const auto vehicle = gen_b.generate(vehicle_signal.generate(600.0)).values();
  EXPECT_GT(eacs::mean(room), 2.0 * eacs::mean(vehicle));
}

TEST(ThroughputGeneratorTest, EmptySignalThrows) {
  ThroughputGenerator generator(ThroughputModel{}, 1);
  EXPECT_THROW(generator.generate(TimeSeries{}), std::invalid_argument);
}

TEST(AccelGeneratorTest, QuietRoomNearZeroVibration) {
  AccelGenerator generator(AccelModel::quiet_room(), 23);
  const auto trace = generator.generate(60.0);
  EXPECT_LT(sensors::mean_vibration_level(trace), 0.2);
}

TEST(AccelGeneratorTest, VehicleVibrates) {
  AccelGenerator generator(AccelModel::moving_vehicle(), 23);
  const auto trace = generator.generate(60.0);
  EXPECT_GT(sensors::mean_vibration_level(trace), 0.5);
}

TEST(AccelGeneratorTest, SampleCadenceAndGravity) {
  AccelGenerator generator(AccelModel::quiet_room(), 29);
  const auto trace = generator.generate(10.0);
  ASSERT_GT(trace.size(), 490U);
  EXPECT_NEAR(trace[1].t_s - trace[0].t_s, 0.02, 1e-9);
  // Mean magnitude stays near gravity in a quiet room.
  double mean_magnitude = 0.0;
  for (const auto& sample : trace) mean_magnitude += sample.magnitude();
  mean_magnitude /= static_cast<double>(trace.size());
  EXPECT_NEAR(mean_magnitude, sensors::kGravity, 0.1);
}

TEST(AccelGeneratorTest, CalibrationHitsTarget) {
  for (const double target : {2.46, 5.23, 6.83}) {
    AccelGenerator generator(AccelModel::moving_vehicle(), 31);
    const auto trace = generator.generate_calibrated(120.0, target);
    const double measured = sensors::mean_vibration_level(trace);
    EXPECT_NEAR(measured / target, 1.0, 0.05) << "target " << target;
  }
}

TEST(AccelGeneratorTest, CalibrationZeroTargetIsQuiet) {
  AccelGenerator generator(AccelModel::moving_vehicle(), 37);
  const auto trace = generator.generate_calibrated(30.0, 0.0);
  EXPECT_LT(sensors::mean_vibration_level(trace), 0.2);
}

TEST(AccelGeneratorTest, CalibrationWorksFromQuietModel) {
  // Even a quiet-room model can be calibrated up: the generator bootstraps a
  // harmonic bank when the base waveform has no vibration energy.
  AccelGenerator generator(AccelModel::quiet_room(), 41);
  const auto trace = generator.generate_calibrated(60.0, 3.0);
  EXPECT_NEAR(sensors::mean_vibration_level(trace), 3.0, 0.25);
}

TEST(AccelGeneratorTest, InvalidInputsThrow) {
  AccelModel model;
  model.sample_rate_hz = 0.0;
  EXPECT_THROW(AccelGenerator(model, 1), std::invalid_argument);
  AccelGenerator ok(AccelModel::quiet_room(), 1);
  EXPECT_THROW(ok.generate(0.0), std::invalid_argument);
}

// 64-bit FNV-1a over the C99 hex-float text (%a: every bit) of each sample,
// the digest idiom of tests/differential/study_digest_test.cpp, folded
// sample by sample instead of over one dump string.
struct SampleDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void add(std::string_view text) {
    for (const unsigned char c : text) {
      h ^= c;
      h *= 0x00000100000001b3ULL;
    }
  }
  void add(double v) {
    char buffer[64];
    const int n = std::snprintf(buffer, sizeof(buffer), "%a ", v);
    add(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
  void add(const sensors::AccelTrace& trace) {
    add("n=" + std::to_string(trace.size()) + "\n");
    for (const auto& s : trace) {
      add(s.t_s);
      add(s.x);
      add(s.y);
      add(s.z);
    }
  }
};

TEST(AccelGeneratorTest, SamplesPinnedBitForBit) {
  // Pins every accelerometer sample the generator emits: the five Table V
  // sessions, and for each preset a few seeds of the plain waveform, the
  // zero-target quiet trace, calibrated targets across Table V's range and
  // beyond (the quiet room takes the bootstrap path), and a trace shorter
  // than one estimator window (the nothing-to-scale return). One generator
  // serves each (preset, seed), so the per-call stream seeds are pinned too.
  // A change to the draw order, the operand order of the scale's
  // recombination or the secant steps moves the hash. The constant was
  // recorded from the generator as it stands; a deliberate change to the
  // samples re-pins it and says why.
  SampleDigest digest;
  for (const auto& session : build_all_sessions()) digest.add(session.accel);
  const AccelModel presets[] = {AccelModel::quiet_room(),
                                AccelModel::moving_vehicle(),
                                AccelModel::walking()};
  for (const AccelModel& preset : presets) {
    for (const std::uint64_t seed : {3ULL, 17ULL, 0xACCE1ULL}) {
      AccelGenerator generator(preset, seed);
      digest.add(generator.generate(40.0));
      digest.add(generator.generate_calibrated(40.0, 0.0));
      for (const double target : {0.3, 1.2, 2.46, 4.5, 7.0}) {
        digest.add(generator.generate_calibrated(40.0, target));
      }
      digest.add(generator.generate_calibrated(0.01, 3.0));
    }
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest.h));
  EXPECT_STREQ(hex, "0x970df31d2581cc97");
}

}  // namespace
}  // namespace eacs::trace
