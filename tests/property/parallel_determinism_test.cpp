// Property suite for the parallel experiment engine: the sim sweeps
// (Section V evaluation, link- and sensor-fault studies, robustness
// ensemble, CEM training) must produce bit-identical results at
// jobs = 1, 2 and 8. This is the
// engine's core guarantee (DESIGN.md, "Parallel execution model"): each
// unit of work is a pure function of its index, and reductions happen
// serially in index order, so the thread count can never leak into a
// number.

#include <gtest/gtest.h>

#include "eacs/sim/evaluation.h"
#include "eacs/sim/fault_study.h"
#include "eacs/sim/robustness.h"
#include "eacs/sim/sensor_fault_study.h"
#include "eacs/sim/training.h"
#include "../test_helpers.h"

namespace eacs::sim {
namespace {

using eacs::testing::make_session;

const std::size_t kJobCounts[] = {1, 2, 8};

std::vector<trace::SessionTraces> mini_sessions() {
  auto quiet = make_session(100.0, 25.0, -88.0, 0.5);
  quiet.spec.id = 1;
  quiet.spec.length_s = 100.0;
  auto shaky = make_session(100.0, 7.0, -107.0, 6.5);
  shaky.spec.id = 2;
  shaky.spec.length_s = 100.0;
  auto mid = make_session(100.0, 12.0, -98.0, 3.0);
  mid.spec.id = 3;
  mid.spec.length_s = 100.0;
  return {quiet, shaky, mid};
}

void expect_identical_rows(const EvaluationResult& a, const EvaluationResult& b,
                           std::size_t jobs) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << "jobs=" << jobs;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const SessionMetrics& x = a.rows[i];
    const SessionMetrics& y = b.rows[i];
    EXPECT_EQ(x.algorithm, y.algorithm) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.session_id, y.session_id) << "row " << i << " jobs=" << jobs;
    // EXPECT_EQ on doubles is exact: the guarantee is bit-identity, not
    // closeness.
    EXPECT_EQ(x.total_energy_j, y.total_energy_j) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.base_energy_j, y.base_energy_j) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.extra_energy_j, y.extra_energy_j) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.mean_qoe, y.mean_qoe) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.mean_bitrate_mbps, y.mean_bitrate_mbps)
        << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.downloaded_mb, y.downloaded_mb) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.rebuffer_s, y.rebuffer_s) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.rebuffer_events, y.rebuffer_events) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.switch_count, y.switch_count) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.startup_delay_s, y.startup_delay_s) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.wasted_energy_j, y.wasted_energy_j) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.wasted_mb, y.wasted_mb) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.retries, y.retries) << "row " << i << " jobs=" << jobs;
    EXPECT_EQ(x.abandoned_segments, y.abandoned_segments)
        << "row " << i << " jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, EvaluationIsBitIdenticalAcrossJobCounts) {
  const auto sessions = mini_sessions();
  EvaluationConfig config;
  config.exec.jobs = 1;
  const EvaluationResult serial = Evaluation(config).run(sessions);
  ASSERT_EQ(serial.rows.size(), 15U);  // 5 algorithms x 3 sessions

  for (const std::size_t jobs : kJobCounts) {
    config.exec.jobs = jobs;
    const EvaluationResult parallel = Evaluation(config).run(sessions);
    expect_identical_rows(serial, parallel, jobs);
  }
}

TEST(ParallelDeterminism, EvaluationAggregatesAreBitIdentical) {
  const auto sessions = mini_sessions();
  EvaluationConfig config;
  const EvaluationResult serial = Evaluation(config).run(sessions);
  config.exec.jobs = 8;
  const EvaluationResult parallel = Evaluation(config).run(sessions);
  for (const auto& algo : {"FESTIVE", "BBA", "Ours", "Optimal"}) {
    EXPECT_EQ(serial.mean_energy_saving(algo), parallel.mean_energy_saving(algo));
    EXPECT_EQ(serial.mean_extra_energy_saving(algo),
              parallel.mean_extra_energy_saving(algo));
    EXPECT_EQ(serial.mean_qoe(algo), parallel.mean_qoe(algo));
    EXPECT_EQ(serial.mean_qoe_degradation(algo), parallel.mean_qoe_degradation(algo));
    EXPECT_EQ(serial.saving_degradation_ratio(algo),
              parallel.saving_degradation_ratio(algo));
  }
}

TEST(ParallelDeterminism, FaultStudyIsBitIdenticalAcrossJobCounts) {
  FaultStudyConfig config;
  // A 2x2 grid keeps the test fast while still crossing both sweep axes.
  config.outage_rates_per_min = {0.0, 1.0};
  config.failure_probs = {0.0, 0.1};
  config.evaluation.session_options.margin_s = 60.0;

  config.evaluation.exec.jobs = 1;
  const FaultStudyResult serial = run_fault_study(config);
  ASSERT_FALSE(serial.cells.empty());

  for (const std::size_t jobs : kJobCounts) {
    config.evaluation.exec.jobs = jobs;
    const FaultStudyResult parallel = run_fault_study(config);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      const FaultCell& x = serial.cells[i];
      const FaultCell& y = parallel.cells[i];
      EXPECT_EQ(x.algorithm, y.algorithm) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.outage_rate_per_min, y.outage_rate_per_min)
          << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.failure_prob, y.failure_prob) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.mean_qoe, y.mean_qoe) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.total_energy_j, y.total_energy_j) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.wasted_energy_j, y.wasted_energy_j)
          << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.rebuffer_s, y.rebuffer_s) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.retries, y.retries) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.abandoned_segments, y.abandoned_segments)
          << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.qoe_delta, y.qoe_delta) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.energy_delta_j, y.energy_delta_j) << "cell " << i << " jobs=" << jobs;
      EXPECT_EQ(x.rebuffer_delta_s, y.rebuffer_delta_s)
          << "cell " << i << " jobs=" << jobs;
    }
  }
}

TEST(ParallelDeterminism, SensorFaultStudyIsBitIdenticalAcrossJobCounts) {
  SensorFaultStudyConfig config;
  // One accel scenario, signal loss and the seeded mixed storm, at a partial
  // and a total intensity: both sweep axes and both seeded code paths.
  config.scenarios = {SensorFaultScenario::kNoiseBurst,
                      SensorFaultScenario::kSignalDropout,
                      SensorFaultScenario::kCombined};
  config.intensities = {0.25, 1.0};
  config.evaluation.session_options.margin_s = 60.0;

  config.evaluation.exec.jobs = 1;
  const SensorFaultStudyResult serial = run_sensor_fault_study(config);
  ASSERT_EQ(serial.cells.size(), 6U);

  const auto expect_same_totals = [](const StudyTotals& x, const StudyTotals& y,
                                     const std::string& where) {
    EXPECT_EQ(x.algorithm, y.algorithm) << where;
    EXPECT_EQ(x.mean_qoe, y.mean_qoe) << where;
    EXPECT_EQ(x.total_energy_j, y.total_energy_j) << where;
    EXPECT_EQ(x.wasted_energy_j, y.wasted_energy_j) << where;
    EXPECT_EQ(x.rebuffer_s, y.rebuffer_s) << where;
    EXPECT_EQ(x.mean_bitrate_mbps, y.mean_bitrate_mbps) << where;
    EXPECT_EQ(x.retries, y.retries) << where;
    EXPECT_EQ(x.abandoned_segments, y.abandoned_segments) << where;
  };
  for (const std::size_t jobs : kJobCounts) {
    config.evaluation.exec.jobs = jobs;
    const SensorFaultStudyResult parallel = run_sensor_fault_study(config);
    const std::string at = " jobs=" + std::to_string(jobs);
    expect_same_totals(serial.clean_ours, parallel.clean_ours, "clean" + at);
    expect_same_totals(serial.context_blind, parallel.context_blind,
                       "blind" + at);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size()) << at;
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      const SensorFaultCell& x = serial.cells[i];
      const SensorFaultCell& y = parallel.cells[i];
      const std::string where = "cell " + std::to_string(i) + at;
      expect_same_totals(x, y, where);
      EXPECT_EQ(x.scenario, y.scenario) << where;
      EXPECT_EQ(x.intensity, y.intensity) << where;
      EXPECT_EQ(x.mean_context_error, y.mean_context_error) << where;
      EXPECT_EQ(x.qoe_delta_vs_clean, y.qoe_delta_vs_clean) << where;
      EXPECT_EQ(x.energy_delta_vs_clean_j, y.energy_delta_vs_clean_j) << where;
      EXPECT_EQ(x.rebuffer_delta_vs_clean_s, y.rebuffer_delta_vs_clean_s)
          << where;
      EXPECT_EQ(x.qoe_delta_vs_blind, y.qoe_delta_vs_blind) << where;
      EXPECT_EQ(x.energy_delta_vs_blind_j, y.energy_delta_vs_blind_j) << where;
    }
  }
}

TEST(ParallelDeterminism, RobustnessStudyIsBitIdenticalAcrossJobCounts) {
  EvaluationConfig config;
  config.session_options.margin_s = 60.0;
  const RobustnessResult serial =
      run_robustness_study(config, 3, 2026, ExecutionPolicy{1});

  for (const std::size_t jobs : kJobCounts) {
    const RobustnessResult parallel =
        run_robustness_study(config, 3, 2026, ExecutionPolicy{jobs});
    ASSERT_EQ(serial.per_algorithm.size(), parallel.per_algorithm.size());
    for (const auto& [algo, dist] : serial.per_algorithm) {
      const auto& other = parallel.per_algorithm.at(algo);
      EXPECT_EQ(dist.energy_saving.mean(), other.energy_saving.mean())
          << algo << " jobs=" << jobs;
      EXPECT_EQ(dist.energy_saving.stddev(), other.energy_saving.stddev())
          << algo << " jobs=" << jobs;
      EXPECT_EQ(dist.extra_energy_saving.mean(), other.extra_energy_saving.mean())
          << algo << " jobs=" << jobs;
      EXPECT_EQ(dist.qoe_degradation.mean(), other.qoe_degradation.mean())
          << algo << " jobs=" << jobs;
      EXPECT_EQ(dist.mean_qoe.mean(), other.mean_qoe.mean())
          << algo << " jobs=" << jobs;
    }
  }
}

TEST(ParallelDeterminism, CemTrainingIsBitIdenticalAcrossJobCounts) {
  auto sessions = mini_sessions();
  sessions.resize(2);
  const CemTrainer trainer(CemTrainer::make_episodes(std::move(sessions)));
  CemConfig config;
  config.population = 8;
  config.elites = 2;
  config.iterations = 2;
  config.seed = 4242;

  config.exec.jobs = 1;
  const TrainingResult serial = trainer.train(config);

  for (const std::size_t jobs : kJobCounts) {
    config.exec.jobs = jobs;
    const TrainingResult parallel = trainer.train(config);
    ASSERT_EQ(serial.weights.size(), parallel.weights.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.weights.size(); ++i) {
      EXPECT_EQ(serial.weights[i], parallel.weights[i])
          << "weight " << i << " jobs=" << jobs;
    }
    ASSERT_EQ(serial.reward_history.size(), parallel.reward_history.size());
    for (std::size_t i = 0; i < serial.reward_history.size(); ++i) {
      EXPECT_EQ(serial.reward_history[i], parallel.reward_history[i])
          << "iteration " << i << " jobs=" << jobs;
    }
    EXPECT_EQ(serial.final_reward, parallel.final_reward) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace eacs::sim
