#include "eacs/sim/fault_study.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "eacs/core/optimal.h"
#include "eacs/core/task.h"
#include "eacs/sensors/vibration.h"

namespace eacs::sim {
namespace {

FaultStudyConfig small_grid() {
  FaultStudyConfig config;
  config.outage_rates_per_min = {0.0, 1.0};
  config.failure_probs = {0.0, 0.25};
  return config;
}

TEST(FaultStudyTest, EmptyAxesThrow) {
  FaultStudyConfig config;
  config.outage_rates_per_min.clear();
  EXPECT_THROW(run_fault_study(config), std::invalid_argument);
  config = FaultStudyConfig{};
  config.failure_probs.clear();
  EXPECT_THROW(run_fault_study(config), std::invalid_argument);
}

TEST(FaultStudyTest, RejectsAnInvalidEvaluation) {
  // The units validate the evaluation's player and models on the workers;
  // the first error still surfaces from run_fault_study.
  FaultStudyConfig config = small_grid();
  config.evaluation.segment_duration_s = 0.0;
  EXPECT_THROW(run_fault_study(config), std::invalid_argument);
  config = small_grid();
  config.evaluation.player.vibration.window_s = 0.0;
  EXPECT_THROW(run_fault_study(config), std::invalid_argument);
  config = small_grid();
  config.evaluation.qoe.a = -1.0;
  EXPECT_THROW(run_fault_study(config), std::invalid_argument);
}

TEST(FaultStudyTest, DeterministicInSeed) {
  const auto config = small_grid();
  const auto a = run_fault_study(config);
  const auto b = run_fault_study(config);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].algorithm, b.cells[i].algorithm);
    EXPECT_EQ(a.cells[i].mean_qoe, b.cells[i].mean_qoe);
    EXPECT_EQ(a.cells[i].total_energy_j, b.cells[i].total_energy_j);
    EXPECT_EQ(a.cells[i].wasted_energy_j, b.cells[i].wasted_energy_j);
    EXPECT_EQ(a.cells[i].rebuffer_s, b.cells[i].rebuffer_s);
    EXPECT_EQ(a.cells[i].retries, b.cells[i].retries);
  }
}

TEST(FaultStudyTest, BaselineCellMatchesFaultFreeRun) {
  const auto result = run_fault_study(small_grid());
  // 2x2 grid, 5 algorithms.
  EXPECT_EQ(result.cells.size(), 4U * 5U);

  for (const auto& algo : {"Youtube", "FESTIVE", "BBA", "Ours", "Optimal"}) {
    const auto& cell = result.cell(algo, 0.0, 0.0);
    // The (0, 0) corner runs with a disabled FaultSpec — a strict pass-
    // through — so its deltas against the fault-free baseline are exactly 0.
    EXPECT_EQ(cell.qoe_delta, 0.0);
    EXPECT_EQ(cell.energy_delta_j, 0.0);
    EXPECT_EQ(cell.rebuffer_delta_s, 0.0);
    EXPECT_EQ(cell.retries, 0U);
    EXPECT_EQ(cell.abandoned_segments, 0U);
    EXPECT_EQ(cell.wasted_energy_j, 0.0);
  }
}

TEST(FaultStudyTest, OptimalPlansOnThePlayersVibration) {
  // The Optimal rows replay plans built on the vibration the engine senses
  // under evaluation.player.vibration, not on the default estimator. The
  // (0, 0) cell is fault-free, so it must fold exactly what those plans
  // score when played plainly, session by session.
  FaultStudyConfig config;
  config.outage_rates_per_min = {0.0};
  config.failure_probs = {0.0};
  config.evaluation.player.vibration.window_s = 12.0;
  config.evaluation.player.vibration.highpass_cutoff_hz = 2.0;
  const auto result = run_fault_study(config);
  const auto& cell = result.cell("Optimal", 0.0, 0.0);

  const StudySessions fixture(config.evaluation);
  StudyTotals want;
  for (std::size_t s = 0; s < fixture.size(); ++s) {
    sensors::VibrationTrack track(fixture.sessions[s].accel,
                                  config.evaluation.player.vibration);
    core::PlannedPolicy optimal(core::OptimalPlanner(fixture.objective)
                                    .plan(core::build_task_environments(
                                        fixture.manifests[s],
                                        fixture.sessions[s], track)));
    want.add(fixture.metrics("Optimal", s,
                             fixture.simulators[s].run(optimal,
                                                       fixture.sessions[s])),
             fixture.size());
  }
  EXPECT_EQ(cell.total_energy_j, want.total_energy_j);
  EXPECT_EQ(cell.mean_qoe, want.mean_qoe);
}

TEST(FaultStudyTest, PlaysTheEvaluationRoster) {
  // Each unit plays Evaluation::run_session, so include_bola adds a BOLA
  // cell, and the fault-free (0, 0) cell folds exactly the BOLA rows that
  // Evaluation::run reports for the same sessions.
  FaultStudyConfig config;
  config.outage_rates_per_min = {0.0};
  config.failure_probs = {0.0};
  config.evaluation.include_bola = true;
  config.evaluation.session_options.margin_s = 60.0;
  const auto result = run_fault_study(config);
  EXPECT_EQ(result.cells.size(), 6U);
  const auto& cell = result.cell("BOLA", 0.0, 0.0);

  const auto rows = Evaluation(config.evaluation).run().rows_for("BOLA");
  ASSERT_FALSE(rows.empty());
  StudyTotals want;
  for (const auto& row : rows) want.add(row, rows.size());
  EXPECT_EQ(cell.mean_qoe, want.mean_qoe);
  EXPECT_EQ(cell.total_energy_j, want.total_energy_j);
  EXPECT_EQ(cell.rebuffer_s, want.rebuffer_s);
  EXPECT_EQ(cell.mean_bitrate_mbps, want.mean_bitrate_mbps);
  EXPECT_EQ(cell.qoe_delta, 0.0);
}

TEST(FaultStudyTest, HarshCellShowsResilienceAtWork) {
  const auto result = run_fault_study(small_grid());
  // Under 1 outage/min and 25% request failures the retry machinery must be
  // visibly engaged for every algorithm, and the waste must be priced.
  for (const auto& algo : {"Youtube", "FESTIVE", "BBA", "Ours", "Optimal"}) {
    const auto& cell = result.cell(algo, 1.0, 0.25);
    EXPECT_GT(cell.retries, 0U) << algo;
    EXPECT_GT(cell.wasted_energy_j, 0.0) << algo;
    EXPECT_LE(cell.qoe_delta, 0.0) << algo;  // faults never improve QoE
  }
}

TEST(FaultStudyTest, UnknownCellThrows) {
  const auto result = run_fault_study(small_grid());
  EXPECT_THROW(result.cell("Nope", 0.0, 0.0), std::out_of_range);
  EXPECT_THROW(result.cell("Ours", 9.9, 0.0), std::out_of_range);
}

}  // namespace
}  // namespace eacs::sim
