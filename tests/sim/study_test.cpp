// The shared study harness (sim/study.h): the deterministic grid fan-out,
// the per-policy totals, and the Table V fixture the session-level fault
// studies replay.

#include "eacs/sim/study.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "eacs/sim/cdn_fault_study.h"
#include "eacs/sim/fault_study.h"
#include "eacs/sim/sensor_fault_study.h"

namespace eacs::sim {
namespace {

TEST(RunGridTest, FoldsEveryUnitPointMajorOnTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  for (const std::size_t jobs : {1U, 2U, 8U}) {
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> folded;
    run_grid(
        jobs, 3, 4,
        [](std::size_t point, std::size_t unit) { return 10 * point + unit; },
        [&](std::size_t point, std::size_t unit, std::size_t result) {
          EXPECT_EQ(std::this_thread::get_id(), caller) << "jobs=" << jobs;
          folded.emplace_back(point, unit, result);
        });
    ASSERT_EQ(folded.size(), 12U) << "jobs=" << jobs;
    for (std::size_t i = 0; i < folded.size(); ++i) {
      const auto [point, unit, result] = folded[i];
      EXPECT_EQ(point, i / 4) << "jobs=" << jobs;
      EXPECT_EQ(unit, i % 4) << "jobs=" << jobs;
      EXPECT_EQ(result, 10 * point + unit) << "jobs=" << jobs;
    }
  }
}

TEST(RunGridTest, EmptyGridRunsAndFoldsNothing) {
  std::size_t calls = 0;
  const auto unit = [&](std::size_t, std::size_t) { return ++calls; };
  const auto fold = [&](std::size_t, std::size_t, std::size_t) { ++calls; };
  run_grid(4, 0, 5, unit, fold);
  run_grid(4, 5, 0, unit, fold);
  EXPECT_EQ(calls, 0U);
}

TEST(StudyTotalsTest, AddSumsTotalsAndAveragesTheMeans) {
  SessionMetrics a;
  a.algorithm = "Ours";
  a.mean_qoe = 4.0;
  a.total_energy_j = 100.0;
  a.wasted_energy_j = 2.0;
  a.rebuffer_s = 1.5;
  a.mean_bitrate_mbps = 3.0;
  a.retries = 2;
  a.abandoned_segments = 1;
  SessionMetrics b = a;
  b.mean_qoe = 2.0;
  b.total_energy_j = 50.0;
  b.mean_bitrate_mbps = 1.0;
  b.retries = 3;

  StudyTotals totals;
  totals.add(a, 2);
  totals.add(b, 2);
  EXPECT_EQ(totals.algorithm, "Ours");
  EXPECT_EQ(totals.mean_qoe, 3.0);
  EXPECT_EQ(totals.total_energy_j, 150.0);
  EXPECT_EQ(totals.wasted_energy_j, 4.0);
  EXPECT_EQ(totals.rebuffer_s, 3.0);
  EXPECT_EQ(totals.mean_bitrate_mbps, 2.0);
  EXPECT_EQ(totals.retries, 5U);
  EXPECT_EQ(totals.abandoned_segments, 2U);
}

TEST(StudySessionsTest, BuildsTheTableVFixtureOnThePlayerItIsGiven) {
  EvaluationConfig evaluation;
  evaluation.session_options.margin_s = 60.0;
  evaluation.player.hedge_enabled = !evaluation.player.hedge_enabled;

  const StudySessions fixture(evaluation);
  ASSERT_EQ(fixture.size(), 5U);
  ASSERT_EQ(fixture.manifests.size(), 5U);
  ASSERT_EQ(fixture.simulators.size(), 5U);
  const Evaluation reference(evaluation);
  for (std::size_t s = 0; s < fixture.size(); ++s) {
    const auto expected = reference.manifest_for(fixture.sessions[s].spec);
    EXPECT_EQ(fixture.manifests[s].video_id(), expected.video_id());
    EXPECT_EQ(fixture.manifests[s].num_segments(), expected.num_segments());
    EXPECT_EQ(fixture.simulators[s].config().hedge_enabled,
              evaluation.player.hedge_enabled);
  }
  EXPECT_EQ(fixture.objective.config().alpha, evaluation.alpha);
}

TEST(StudySessionsTest, RejectsAnInvalidEvaluation) {
  EvaluationConfig evaluation;
  evaluation.segment_duration_s = 0.0;
  EXPECT_THROW(StudySessions{evaluation}, std::invalid_argument);
}

// The cells carry every StudyTotals field, filled from the same session
// metrics as the columns they always had.
TEST(StudyTotalsTest, StudyCellsNameTheirAlgorithmAndBitrate) {
  SensorFaultStudyConfig sensor;
  sensor.scenarios = {SensorFaultScenario::kDropout};
  sensor.intensities = {1.0};
  sensor.evaluation.session_options.margin_s = 60.0;
  const auto sensor_result = run_sensor_fault_study(sensor);
  EXPECT_EQ(sensor_result.clean_ours.algorithm, "Ours");
  EXPECT_EQ(sensor_result.context_blind.algorithm, "BBA");
  ASSERT_EQ(sensor_result.cells.size(), 1U);
  EXPECT_EQ(sensor_result.cells[0].algorithm, "Ours");
  // Sensor faults touch no transfer, so nothing is retried or wasted.
  EXPECT_EQ(sensor_result.cells[0].retries, 0U);
  EXPECT_EQ(sensor_result.cells[0].wasted_energy_j, 0.0);

  CdnFaultStudyConfig cdn;
  cdn.families = {CdnFaultFamily::kErrorBursts};
  cdn.intensities = {1.0};
  cdn.source_counts = {1};
  cdn.evaluation.session_options.margin_s = 60.0;
  const auto cdn_result = run_cdn_fault_study(cdn);
  ASSERT_EQ(cdn_result.cells.size(), 1U);
  EXPECT_EQ(cdn_result.cells[0].algorithm, cdn_result.clean.algorithm);
  EXPECT_EQ(cdn_result.clean.retries, 0U);
  EXPECT_GT(cdn_result.cells[0].retries, 0U);

  FaultStudyConfig link;
  link.outage_rates_per_min = {0.0};
  link.failure_probs = {0.0};
  link.evaluation.session_options.margin_s = 60.0;
  const auto link_result = run_fault_study(link);
  ASSERT_FALSE(link_result.cells.empty());
  for (const FaultCell& cell : link_result.cells) {
    EXPECT_GT(cell.mean_bitrate_mbps, 0.0) << cell.algorithm;
    EXPECT_LT(cell.mean_bitrate_mbps, 100.0) << cell.algorithm;
  }
}

}  // namespace
}  // namespace eacs::sim
