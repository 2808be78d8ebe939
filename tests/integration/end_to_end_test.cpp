// Integration suite: whole-system paths crossing module boundaries.

#include <gtest/gtest.h>

#include "eacs/core/online.h"
#include "eacs/media/mpd.h"
#include "eacs/qoe/subjective_study.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/metrics.h"
#include "eacs/trace/scenario.h"
#include "eacs/trace/trace_io.h"

namespace eacs {
namespace {

TEST(EndToEndTest, MpdRoundTripDrivesIdenticalPlayback) {
  // manifest -> MPD XML -> parsed manifest: the player must behave
  // identically against both descriptions.
  const auto session = trace::build_session(media::evaluation_sessions()[0]);
  const media::VideoManifest original("trace1", session.spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14(),
                                      media::VbrModel{0.15});
  const auto parsed = media::from_mpd_xml(media::to_mpd_xml(original));

  core::Objective objective(qoe::QoeModel{}, power::PowerModel{},
                            core::ObjectiveConfig{});
  core::OnlineBitrateSelector policy_a(objective, {.startup_level = 3});
  core::OnlineBitrateSelector policy_b(objective, {.startup_level = 3});

  const auto result_a = player::PlayerSimulator(original).run(policy_a, session);
  const auto result_b = player::PlayerSimulator(parsed).run(policy_b, session);
  ASSERT_EQ(result_a.tasks.size(), result_b.tasks.size());
  for (std::size_t i = 0; i < result_a.tasks.size(); ++i) {
    EXPECT_EQ(result_a.tasks[i].level, result_b.tasks[i].level) << "segment " << i;
    EXPECT_NEAR(result_a.tasks[i].download_end_s, result_b.tasks[i].download_end_s,
                1e-9);
  }
}

TEST(EndToEndTest, CsvRoundTrippedSessionReplaysIdentically) {
  // Persist all three traces to CSV, reload, and verify the playback run is
  // bit-identical — proving recorded real traces can replace the generators.
  const auto session = trace::build_session(media::evaluation_sessions()[1]);
  trace::SessionTraces reloaded;
  reloaded.spec = session.spec;
  reloaded.signal_dbm =
      trace::time_series_from_csv(trace::time_series_to_csv(session.signal_dbm));
  reloaded.throughput_mbps =
      trace::time_series_from_csv(trace::time_series_to_csv(session.throughput_mbps));
  reloaded.accel = trace::accel_from_csv(trace::accel_to_csv(session.accel));

  const media::VideoManifest manifest("trace2", session.spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  core::Objective objective(qoe::QoeModel{}, power::PowerModel{},
                            core::ObjectiveConfig{});
  core::OnlineBitrateSelector policy_a(objective, {.startup_level = 3});
  core::OnlineBitrateSelector policy_b(objective, {.startup_level = 3});
  const player::PlayerSimulator simulator(manifest);
  const auto result_a = simulator.run(policy_a, session);
  const auto result_b = simulator.run(policy_b, reloaded);
  ASSERT_EQ(result_a.tasks.size(), result_b.tasks.size());
  for (std::size_t i = 0; i < result_a.tasks.size(); ++i) {
    EXPECT_EQ(result_a.tasks[i].level, result_b.tasks[i].level);
    EXPECT_DOUBLE_EQ(result_a.tasks[i].download_end_s,
                     result_b.tasks[i].download_end_s);
  }
}

TEST(EndToEndTest, FittedModelsCloseTheLoop) {
  // The paper's full pipeline: run the subjective study against the ground
  // truth, fit the QoE model from the noisy ratings, then drive the whole
  // evaluation with the *fitted* model. The headline result (Ours saves
  // substantial energy vs. YouTube at small QoE cost) must survive the
  // model-identification noise.
  qoe::StudyConfig study_config;
  qoe::SubjectiveStudy study(study_config, qoe::QoeModel{});
  const auto fit = qoe::fit_qoe_model_from_ratings(study.run());

  sim::EvaluationConfig config;
  config.qoe = fit.params;  // fitted, not ground truth
  const sim::Evaluation evaluation(config);
  // Two sessions keep the test fast; the full five run in the bench.
  const auto sessions = trace::build_all_sessions();
  const std::vector<trace::SessionTraces> subset = {sessions[0], sessions[1]};
  const auto result = evaluation.run(subset);

  EXPECT_GT(result.mean_energy_saving("Ours"), 0.10);
  EXPECT_LT(result.mean_qoe_degradation("Ours"), 0.10);
}

TEST(EndToEndTest, ScenarioSessionThroughFullEvaluation) {
  // A scenario-built multi-context session flows through the standard
  // evaluation machinery like any Table V session.
  trace::ScenarioBuilder builder(42);
  builder.add_phase(trace::ScenarioPhase::home(60.0))
      .add_phase(trace::ScenarioPhase::bus(120.0));
  auto session = builder.build();
  session.spec.id = 7;

  const sim::Evaluation evaluation;
  const auto result = evaluation.run({session});
  EXPECT_EQ(result.rows.size(), 5U);
  EXPECT_LE(result.row("Ours", 7).total_energy_j,
            result.row("Youtube", 7).total_energy_j);
}

TEST(EndToEndTest, RrcAccountingConsistentWithPerByte) {
  // RRC-aware totals exceed per-byte totals by exactly the radio overhead
  // components (tails, idle floor, promotions).
  const auto session = trace::build_session(media::evaluation_sessions()[0]);
  const media::VideoManifest manifest("trace1", session.spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const player::PlayerSimulator simulator(manifest);
  core::Objective objective(qoe::QoeModel{}, power::PowerModel{},
                            core::ObjectiveConfig{});
  core::OnlineBitrateSelector policy(objective, {.startup_level = 3});
  const auto playback = simulator.run(policy, session);

  const power::PowerModel power_model;
  const auto rrc_energy = sim::session_energy_rrc(playback, power_model);
  const double per_byte_total = sim::session_energy_j(playback, power_model);

  EXPECT_NEAR(rrc_energy.data_j + rrc_energy.playback_j, per_byte_total, 1e-6);
  EXPECT_GT(rrc_energy.tail_j, 0.0);
  EXPECT_GE(rrc_energy.promotions, 1U);
  EXPECT_NEAR(rrc_energy.total_j(),
              per_byte_total + rrc_energy.tail_j + rrc_energy.idle_j +
                  rrc_energy.promotion_j,
              1e-6);
}

}  // namespace
}  // namespace eacs
