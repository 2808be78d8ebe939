// Sensor-fault study acceptance tests.
//
// The two contract-level facts the ISSUE pins down:
//  * an inactive injector is a strict no-op — every playback field
//    bit-identical to a run without one;
//  * 100% accelerometer loss converges to the conservative-prior plan with no
//    NaN/Inf anywhere in the result, and a stream of NaN garbage lands on the
//    exact same plan (lost is lost, whatever the failure mode).

#include "eacs/sim/sensor_fault_study.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "eacs/core/online.h"
#include "eacs/player/player.h"
#include "eacs/player/session_invariants.h"
#include "eacs/sensors/sensor_faults.h"
#include "../test_helpers.h"

namespace eacs::sim {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;

core::Objective make_objective() {
  core::ObjectiveConfig config;
  return core::Objective(qoe::QoeModel{}, power::PowerModel{}, config);
}

sensors::SensorFaultSpec whole_stream(sensors::SensorFaultType type,
                                      double nan_prob = 0.5) {
  sensors::SensorFaultSpec spec;
  spec.accel_episodes = {{type, 0.0, 1e9}};
  spec.nan_prob = nan_prob;
  return spec;
}

TEST(SensorFaultStudyTest, InactiveInjectorIsBitIdentical) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -85.0, 3.0);
  const player::PlayerSimulator simulator(manifest);
  const sensors::SensorFaultInjector inactive(
      session.accel, trace::signal_samples(session.signal_dbm), {});
  ASSERT_FALSE(inactive.active());

  core::OnlineBitrateSelector bare(make_objective(), {.startup_level = 3});
  const auto clean = simulator.run(bare, session);
  core::OnlineBitrateSelector attached(make_objective(), {.startup_level = 3});
  const auto with_injector = simulator.run(attached, session, inactive);

  ASSERT_EQ(clean.tasks.size(), with_injector.tasks.size());
  EXPECT_EQ(clean.startup_delay_s, with_injector.startup_delay_s);
  EXPECT_EQ(clean.total_rebuffer_s, with_injector.total_rebuffer_s);
  EXPECT_EQ(clean.session_end_s, with_injector.session_end_s);
  for (std::size_t i = 0; i < clean.tasks.size(); ++i) {
    EXPECT_EQ(clean.tasks[i].level, with_injector.tasks[i].level);
    EXPECT_EQ(clean.tasks[i].download_end_s, with_injector.tasks[i].download_end_s);
    EXPECT_EQ(clean.tasks[i].vibration, with_injector.tasks[i].vibration);
    EXPECT_EQ(clean.tasks[i].perceived_vibration,
              with_injector.tasks[i].perceived_vibration);
  }
}

TEST(SensorFaultStudyTest, TotalDropoutConvergesToTheConservativePrior) {
  const auto manifest = make_manifest(60.0, 2.0);
  // Quiet session: the true vibration is ~0, so the prior fallback is visible.
  const auto session = make_session(60.0, 8.0, -85.0, 0.0);
  const player::PlayerSimulator simulator(manifest);
  const sensors::SensorFaultInjector dropout(
      session.accel, trace::signal_samples(session.signal_dbm),
      whole_stream(sensors::SensorFaultType::kDropout));

  core::OnlineBitrateSelector ours(make_objective(), {.startup_level = 3});
  const auto result = simulator.run(ours, session, dropout);

  const double prior = sensors::VibrationConfig{}.prior_vibration;
  ASSERT_FALSE(result.tasks.empty());
  for (const auto& task : result.tasks) {
    EXPECT_TRUE(std::isfinite(task.perceived_vibration));
    EXPECT_DOUBLE_EQ(task.perceived_vibration, prior);
    EXPECT_NEAR(task.vibration, 0.0, 0.2);  // the true context stays quiet
  }
  // No NaN/Inf anywhere in the result.
  EXPECT_TRUE(player::SessionInvariantChecker::check_result(
                  result, manifest.ladder().size())
                  .empty());
}

TEST(SensorFaultStudyTest, NanFloodLandsOnTheSamePlanAsDropout) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -85.0, 0.0);
  const player::PlayerSimulator simulator(manifest);
  const auto signal = trace::signal_samples(session.signal_dbm);
  const sensors::SensorFaultInjector dropout(
      session.accel, signal, whole_stream(sensors::SensorFaultType::kDropout));
  const sensors::SensorFaultInjector nan_flood(
      session.accel, signal,
      whole_stream(sensors::SensorFaultType::kNanCorruption, /*nan_prob=*/1.0));

  core::OnlineBitrateSelector a(make_objective(), {.startup_level = 3});
  const auto dropped = simulator.run(a, session, dropout);
  core::OnlineBitrateSelector b(make_objective(), {.startup_level = 3});
  const auto poisoned = simulator.run(b, session, nan_flood);

  ASSERT_EQ(dropped.tasks.size(), poisoned.tasks.size());
  for (std::size_t i = 0; i < dropped.tasks.size(); ++i) {
    EXPECT_EQ(dropped.tasks[i].level, poisoned.tasks[i].level) << "task " << i;
    EXPECT_TRUE(std::isfinite(poisoned.tasks[i].perceived_vibration));
  }
}

TEST(SensorFaultStudyTest, StudyGridIsFiniteAndDeterministic) {
  SensorFaultStudyConfig config;
  config.scenarios = {SensorFaultScenario::kDropout,
                      SensorFaultScenario::kSignalDropout};
  config.intensities = {1.0};
  const auto first = run_sensor_fault_study(config);
  ASSERT_EQ(first.cells.size(), 2U);
  for (const auto& cell : first.cells) {
    EXPECT_TRUE(std::isfinite(cell.mean_qoe));
    EXPECT_TRUE(std::isfinite(cell.total_energy_j));
    EXPECT_TRUE(std::isfinite(cell.mean_context_error));
    EXPECT_GT(cell.mean_qoe, 0.0);
  }
  EXPECT_TRUE(std::isfinite(first.clean_ours.mean_qoe));
  EXPECT_TRUE(std::isfinite(first.context_blind.mean_qoe));

  // Total accel loss forces the prior everywhere: the perceived-vs-true gap
  // must be visible, and it must vanish for the signal-only scenario.
  const auto& accel_cell = first.cell(SensorFaultScenario::kDropout, 1.0);
  EXPECT_GT(accel_cell.mean_context_error, 0.5);
  const auto& signal_cell = first.cell(SensorFaultScenario::kSignalDropout, 1.0);
  EXPECT_DOUBLE_EQ(signal_cell.mean_context_error, 0.0);

  const auto second = run_sensor_fault_study(config);
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(first.cells[i].mean_qoe, second.cells[i].mean_qoe);
    EXPECT_EQ(first.cells[i].total_energy_j, second.cells[i].total_energy_j);
  }
  EXPECT_EQ(first.clean_ours.mean_qoe, second.clean_ours.mean_qoe);
}

TEST(SensorFaultStudyTest, ConfigValidation) {
  SensorFaultStudyConfig empty_axis;
  empty_axis.intensities.clear();
  EXPECT_THROW(run_sensor_fault_study(empty_axis), std::invalid_argument);

  SensorFaultStudyConfig config;
  config.scenarios = {SensorFaultScenario::kDropout};
  config.intensities = {1.0};
  const auto result = run_sensor_fault_study(config);
  EXPECT_THROW(result.cell(SensorFaultScenario::kCombined, 1.0),
               std::out_of_range);
  EXPECT_THROW(result.cell(SensorFaultScenario::kDropout, 0.5),
               std::out_of_range);

  // Malformed axes and rates are refused up front, naming the field. A
  // non-positive episode length would lay periodic episodes forever, a NaN
  // intensity would lay one episode and report intensity NaN, and a NaN
  // combined rate would read as no faults.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejected_naming = [](const SensorFaultStudyConfig& bad,
                                  const std::string& field) {
    try {
      run_sensor_fault_study(bad);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what()).find(field) != std::string::npos;
    }
    return false;
  };
  for (const double length : {nan, inf, 0.0, -1.0}) {
    SensorFaultStudyConfig bad;
    bad.scenarios = {SensorFaultScenario::kDropout};
    bad.intensities = {0.25};
    bad.episode_length_s = length;
    EXPECT_TRUE(rejected_naming(bad, "episode_length_s")) << length;
  }
  for (const double intensity : {nan, inf, -0.5}) {
    SensorFaultStudyConfig bad;
    bad.scenarios = {SensorFaultScenario::kDropout};
    bad.intensities = {1.0, intensity};
    EXPECT_TRUE(rejected_naming(bad, "intensities")) << intensity;
  }
  for (const double rate : {nan, -1.0}) {
    SensorFaultStudyConfig accel;
    accel.scenarios = {SensorFaultScenario::kCombined};
    accel.intensities = {1.0};
    accel.combined_accel_rate_per_min = rate;
    EXPECT_TRUE(rejected_naming(accel, "combined_accel_rate_per_min")) << rate;
    SensorFaultStudyConfig signal = accel;
    signal.combined_accel_rate_per_min = 3.0;
    signal.combined_signal_rate_per_min = rate;
    EXPECT_TRUE(rejected_naming(signal, "combined_signal_rate_per_min")) << rate;
  }
}

}  // namespace
}  // namespace eacs::sim
