#include "eacs/core/objective.h"

#include <gtest/gtest.h>

#include <limits>

#include "eacs/core/task.h"
#include "../test_helpers.h"

namespace eacs::core {
namespace {

TaskEnvironment make_env(double bandwidth = 10.0, double vibration = 0.0,
                         double signal = -90.0) {
  TaskEnvironment env;
  env.index = 0;
  env.duration_s = 2.0;
  env.signal_dbm = signal;
  env.vibration = vibration;
  env.bandwidth_mbps = bandwidth;
  for (double r : media::BitrateLadder::evaluation14().bitrates()) {
    env.size_megabits.push_back(r * 2.0);
  }
  return env;
}

Objective make_objective(double alpha = 0.5, bool context_aware = true) {
  ObjectiveConfig config;
  config.alpha = alpha;
  config.context_aware = context_aware;
  return Objective(qoe::QoeModel{}, power::PowerModel{}, config);
}

TEST(ObjectiveTest, InvalidAlphaThrows) {
  ObjectiveConfig config;
  config.alpha = 1.5;
  EXPECT_THROW(Objective(qoe::QoeModel{}, power::PowerModel{}, config),
               std::invalid_argument);
  config.alpha = -0.1;
  EXPECT_THROW(Objective(qoe::QoeModel{}, power::PowerModel{}, config),
               std::invalid_argument);
  config.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Objective(qoe::QoeModel{}, power::PowerModel{}, config),
               std::invalid_argument);
}

TEST(ObjectiveTest, ExpectedRebuffer) {
  const auto objective = make_objective();
  // 11.6 megabits at 2 Mbps = 5.8 s download; 4 s buffered -> 1.8 s stall.
  EXPECT_NEAR(objective.expected_rebuffer_s(11.6, 2.0, 4.0), 1.8, 1e-9);
  EXPECT_DOUBLE_EQ(objective.expected_rebuffer_s(11.6, 20.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(objective.expected_rebuffer_s(0.0, 2.0, 4.0), 0.0);
  // Dead link charges the cap.
  EXPECT_DOUBLE_EQ(objective.expected_rebuffer_s(1.0, 0.0, 4.0), 30.0);
}

TEST(ObjectiveTest, EnergyMonotoneInLevel) {
  const auto objective = make_objective();
  const auto env = make_env();
  double prev = 0.0;
  for (std::size_t level = 0; level < 14; ++level) {
    const double energy = objective.task_energy(env, level, 30.0);
    EXPECT_GT(energy, prev);
    prev = energy;
  }
}

TEST(ObjectiveTest, EnergyHigherUnderWeakSignal) {
  const auto objective = make_objective();
  EXPECT_GT(objective.task_energy(make_env(10.0, 0.0, -110.0), 13, 30.0),
            objective.task_energy(make_env(10.0, 0.0, -90.0), 13, 30.0));
}

TEST(ObjectiveTest, QoeMonotoneInLevelWhenQuiet) {
  const auto objective = make_objective();
  const auto env = make_env(50.0, 0.0);
  for (std::size_t level = 1; level < 14; ++level) {
    EXPECT_GE(objective.task_qoe(env, level, std::nullopt, 30.0),
              objective.task_qoe(env, level - 1, std::nullopt, 30.0));
  }
}

TEST(ObjectiveTest, AlphaZeroMaximisesQoe) {
  // Pure QoE weighting in a quiet room with abundant bandwidth: the
  // reference level is the top of the ladder.
  const auto objective = make_objective(0.0);
  EXPECT_EQ(objective.reference_level(make_env(100.0, 0.0), 30.0), 13U);
}

TEST(ObjectiveTest, AlphaOneMinimisesEnergy) {
  const auto objective = make_objective(1.0);
  EXPECT_EQ(objective.reference_level(make_env(100.0, 0.0), 30.0), 0U);
}

TEST(ObjectiveTest, VibrationLowersReferenceLevel) {
  // The core context-aware behaviour: heavy vibration shifts the optimal
  // bitrate down because high-rate QoE gains evaporate.
  const auto objective = make_objective(0.5);
  const auto quiet_ref = objective.reference_level(make_env(100.0, 0.0), 30.0);
  const auto shaky_ref = objective.reference_level(make_env(100.0, 7.0), 30.0);
  EXPECT_LT(shaky_ref, quiet_ref);
}

TEST(ObjectiveTest, WeakSignalLowersReferenceLevel) {
  const auto objective = make_objective(0.5);
  const auto strong = objective.reference_level(make_env(100.0, 0.0, -90.0), 30.0);
  const auto weak = objective.reference_level(make_env(100.0, 0.0, -115.0), 30.0);
  EXPECT_LT(weak, strong);
}

TEST(ObjectiveTest, ContextAwareFlagDisablesVibrationTerm) {
  const auto aware = make_objective(0.5, true);
  const auto blind = make_objective(0.5, false);
  const auto env = make_env(100.0, 7.0);
  // The context-blind objective prices vibration at zero, so its QoE for the
  // top level is higher and its reference level at least as high.
  EXPECT_GT(blind.task_qoe(env, 13, std::nullopt, 30.0),
            aware.task_qoe(env, 13, std::nullopt, 30.0));
  EXPECT_GE(blind.reference_level(env, 30.0), aware.reference_level(env, 30.0));
}

TEST(ObjectiveTest, ScarceBandwidthPunishesHighLevels) {
  const auto objective = make_objective(0.5);
  // 1 Mbps link, 4 s of buffer: levels above 1.5 Mbps (2 s segments = 3+
  // megabits) would stall, so the reference stays at or below level 7
  // (exactly the 3-megabit segment that still fits the buffer).
  EXPECT_LE(objective.reference_level(make_env(1.0, 0.0), 4.0), 7U);
  // With almost no buffer, even mid levels stall: the reference drops hard.
  EXPECT_LE(objective.reference_level(make_env(1.0, 0.0), 0.5), 3U);
}

TEST(ObjectiveTest, SwitchTermPenalisesLevelJumps) {
  const auto objective = make_objective(0.0);
  const auto env = make_env(100.0, 0.0);
  const double stay = objective.task_cost(env, 10, 10U, 30.0);
  const double jump = objective.task_cost(env, 10, 0U, 30.0);
  EXPECT_LT(stay, jump);
}

}  // namespace
}  // namespace eacs::core
