#include "eacs/core/pareto.h"

#include <gtest/gtest.h>

#include "eacs/core/cost_stats.h"
#include "eacs/util/rng.h"

namespace eacs::core {
namespace {

std::vector<TaskEnvironment> make_tasks(std::size_t n, std::uint64_t seed,
                                        double vibration) {
  eacs::Rng rng(seed);
  const auto ladder = media::BitrateLadder::evaluation14();
  std::vector<TaskEnvironment> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    TaskEnvironment env;
    env.index = i;
    env.duration_s = 2.0;
    env.signal_dbm = rng.uniform(-110.0, -90.0);
    env.vibration = vibration;
    env.bandwidth_mbps = rng.uniform(8.0, 25.0);
    for (std::size_t level = 0; level < ladder.size(); ++level) {
      env.size_megabits.push_back(ladder.bitrate(level) * 2.0);
    }
    tasks.push_back(std::move(env));
  }
  return tasks;
}

TEST(ParetoTest, InvalidInputsThrow) {
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  EXPECT_THROW(compute_pareto_front({}, qoe_model, power_model),
               std::invalid_argument);
  const auto tasks = make_tasks(5, 1, 3.0);
  EXPECT_THROW(compute_pareto_front(tasks, qoe_model, power_model, 1),
               std::invalid_argument);
  EXPECT_THROW(price_plan(tasks, {0, 1}, qoe_model, power_model),
               std::invalid_argument);
}

TEST(ParetoTest, FrontIsNonDominatedAndMonotone) {
  const auto tasks = make_tasks(30, 7, 4.0);
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  const auto front = compute_pareto_front(tasks, qoe_model, power_model, 11);
  ASSERT_GE(front.points.size(), 3U);
  for (std::size_t i = 1; i < front.points.size(); ++i) {
    // Ascending alpha => energy non-increasing, QoE non-increasing.
    EXPECT_GE(front.points[i - 1].energy_j, front.points[i].energy_j - 1e-6);
    EXPECT_GE(front.points[i - 1].mean_qoe, front.points[i].mean_qoe - 1e-9);
  }
  // No point dominates another.
  for (const auto& a : front.points) {
    for (const auto& b : front.points) {
      EXPECT_FALSE(a.energy_j < b.energy_j - 1e-9 &&
                   a.mean_qoe > b.mean_qoe + 1e-9);
    }
  }
}

TEST(ParetoTest, EndpointsMatchPureObjectives) {
  const auto tasks = make_tasks(20, 9, 2.0);
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  const auto front = compute_pareto_front(tasks, qoe_model, power_model, 11);
  // alpha = 1 endpoint: the all-lowest plan (minimum energy).
  const auto& battery_saver = front.points.back();
  for (std::size_t level : battery_saver.levels) EXPECT_EQ(level, 0U);
  // alpha = 0 endpoint has the highest QoE on the front.
  for (const auto& point : front.points) {
    EXPECT_LE(point.mean_qoe, front.points.front().mean_qoe + 1e-9);
  }
}

TEST(ParetoTest, KneeIsInterior) {
  const auto tasks = make_tasks(30, 11, 5.0);
  const auto front =
      compute_pareto_front(tasks, qoe::QoeModel{}, power::PowerModel{}, 21);
  ASSERT_GE(front.points.size(), 3U);
  EXPECT_GT(front.knee_index, 0U);
  EXPECT_LT(front.knee_index, front.points.size() - 1);
}

TEST(ParetoTest, SweepBuildsOneTablePerTask) {
  // Tables are built once and re-weighted per alpha sample, so a 21-alpha
  // sweep builds N tables instead of 21*N.
  const auto tasks = make_tasks(120, 3, 4.0);
  CostStats stats;
  {
    CostStatsScope scope(stats);
    compute_pareto_front(tasks, qoe::QoeModel{}, power::PowerModel{}, 21);
  }
  EXPECT_EQ(stats.tables_built, tasks.size());
}

TEST(ParetoTest, VibrationShiftsFrontDown) {
  // Under heavy vibration the achievable QoE ceiling drops: the alpha = 0
  // endpoint of the shaky front sits below the quiet one.
  const auto quiet_tasks = make_tasks(20, 13, 0.0);
  const auto shaky_tasks = make_tasks(20, 13, 7.0);
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  const auto quiet = compute_pareto_front(quiet_tasks, qoe_model, power_model, 9);
  const auto shaky = compute_pareto_front(shaky_tasks, qoe_model, power_model, 9);
  EXPECT_GT(quiet.points.front().mean_qoe, shaky.points.front().mean_qoe + 0.2);
}

TEST(ParetoTest, PricePlanMatchesManualAccounting) {
  const auto tasks = make_tasks(3, 17, 2.0);
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  const std::vector<std::size_t> plan = {3, 3, 3};
  const auto point = price_plan(tasks, plan, qoe_model, power_model);
  // All same level, ample bandwidth: energy is the sum of three task
  // energies with no stalls.
  double expected_energy = 0.0;
  for (const auto& env : tasks) {
    power::TaskEnergyInput input;
    input.size_mb = env.size_megabits[3] / 8.0;
    input.bitrate_mbps = env.size_megabits[3] / env.duration_s;
    input.signal_dbm = env.signal_dbm;
    input.play_s = env.duration_s;
    expected_energy += power_model.task_energy(input);
  }
  EXPECT_NEAR(point.energy_j, expected_energy, 1e-9);
  EXPECT_GT(point.mean_qoe, 1.0);
}

}  // namespace
}  // namespace eacs::core
