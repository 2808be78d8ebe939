#include "eacs/sim/evaluation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/optimal.h"
#include "eacs/core/task.h"
#include "eacs/media/bitrate_ladder.h"
#include "eacs/sensors/vibration.h"
#include "eacs/util/rng.h"
#include "../test_helpers.h"

namespace eacs::sim {
namespace {

using eacs::testing::make_session;

/// A fast two-session evaluation: one smooth/strong, one shaky/weak.
std::vector<trace::SessionTraces> mini_sessions() {
  auto quiet = make_session(120.0, 25.0, -88.0, 0.5);
  quiet.spec.id = 1;
  quiet.spec.length_s = 120.0;
  auto shaky = make_session(120.0, 7.0, -107.0, 6.5);
  shaky.spec.id = 2;
  shaky.spec.length_s = 120.0;
  return {quiet, shaky};
}

TEST(MetricsTest, EnergyAndQoeComposition) {
  const auto manifest = eacs::testing::make_manifest(20.0, 2.0);
  player::PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(13, "Top");
  const auto session = make_session(20.0, 40.0, -95.0, 3.0);
  const auto playback = simulator.run(policy, session);
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  const auto metrics =
      compute_metrics("Top", 1, playback, manifest, qoe_model, power_model);

  EXPECT_GT(metrics.total_energy_j, 0.0);
  EXPECT_GT(metrics.base_energy_j, 0.0);
  EXPECT_NEAR(metrics.extra_energy_j,
              metrics.total_energy_j - metrics.base_energy_j, 1e-9);
  EXPECT_GT(metrics.extra_energy_j, 0.0);  // top bitrate costs more than base
  EXPECT_GE(metrics.mean_qoe, 1.0);
  EXPECT_LE(metrics.mean_qoe, 5.0);
  EXPECT_NEAR(metrics.mean_bitrate_mbps, 5.8, 1e-6);
}

TEST(MetricsTest, LowestBitrateRunHasNoExtraEnergy) {
  const auto manifest = eacs::testing::make_manifest(20.0, 2.0);
  player::PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(0, "Bottom");
  const auto playback = simulator.run(policy, make_session(20.0, 40.0));
  const auto metrics = compute_metrics("Bottom", 1, playback, manifest,
                                       qoe::QoeModel{}, power::PowerModel{});
  EXPECT_NEAR(metrics.extra_energy_j, 0.0, 1e-6);
}

TEST(SessionMeanQoe, EqualsThePerTaskSegmentQoeSum) {
  // session_mean_qoe evaluates q0(r) and r^beta once per run of equal
  // bitrates and kappa * v^alpha once per task. It must keep the bits of
  // the per-task sum of segment_qoe(context), whose context names the
  // previous task's bitrate, and of that sum composed from the model's
  // public terms. The tasks mix ladder rungs, zero-bitrate tasks (no switch
  // term after them), repeats and switches, stalls and quiet stretches.
  const qoe::QoeModel model;
  const auto expect_per_task_sum = [&](const player::PlaybackResult& result,
                                       const std::string& label) {
    double weighted = 0.0;
    double composed = 0.0;
    double duration = 0.0;
    double prev_bitrate = 0.0;
    for (const player::TaskRecord& task : result.tasks) {
      qoe::SegmentContext context;
      context.bitrate_mbps = task.bitrate_mbps;
      context.vibration = task.vibration;
      context.prev_bitrate_mbps = prev_bitrate;
      context.rebuffer_s = task.rebuffer_s;
      weighted += model.segment_qoe(context) * task.duration_s;
      composed += model.segment_qoe_from_base(
                      model.original_quality(task.bitrate_mbps) -
                          model.vibration_impairment(task.vibration,
                                                     task.bitrate_mbps),
                      model.switch_impairment(task.bitrate_mbps, prev_bitrate),
                      task.rebuffer_s) *
                  task.duration_s;
      duration += task.duration_s;
      prev_bitrate = task.bitrate_mbps;
    }
    const double got = session_mean_qoe(result, model);
    EXPECT_EQ(got, weighted / duration) << label;
    EXPECT_EQ(got, composed / duration) << label;
  };

  // Scripted: a run of one rung across a switch into a run of another, a
  // zero-vibration stretch inside a run, and tasks at 0 and -1 Mbps each
  // between two tasks of one rung (the run resumes with fresh terms).
  struct Step {
    double bitrate_mbps;
    double vibration;
    double rebuffer_s;
  };
  const Step script[] = {
      {1.2, 4.0, 0.0}, {1.2, 5.5, 0.0}, {1.2, 0.0, 0.7}, {3.0, 0.0, 0.0},
      {3.0, 0.0, 0.0}, {3.0, 6.0, 0.0}, {0.0, 6.0, 1.0}, {3.0, 6.0, 0.0},
      {3.0, 2.0, 0.0}, {-1.0, 2.0, 0.0}, {3.0, 0.0, 2.5}, {1.2, 3.0, 0.0}};
  player::PlaybackResult scripted;
  for (const Step& step : script) {
    player::TaskRecord task;
    task.bitrate_mbps = step.bitrate_mbps;
    task.vibration = step.vibration;
    task.rebuffer_s = step.rebuffer_s;
    task.duration_s = 2.0;
    scripted.tasks.push_back(task);
  }
  expect_per_task_sum(scripted, "scripted");
  // Each prefix ends a run at a different place.
  for (std::size_t n = 1; n < scripted.tasks.size(); ++n) {
    player::PlaybackResult prefix;
    prefix.tasks.assign(scripted.tasks.begin(),
                        scripted.tasks.begin() + static_cast<std::ptrdiff_t>(n));
    expect_per_task_sum(prefix, "prefix " + std::to_string(n));
  }

  const std::vector<double> rungs = media::BitrateLadder::evaluation14().bitrates();
  eacs::Rng rng(2026);
  for (int session = 0; session < 20; ++session) {
    player::PlaybackResult result;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
    std::size_t switches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      player::TaskRecord task;
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.1) {
        task.bitrate_mbps = 0.0;
      } else if (u < 0.4 && i > 0) {
        task.bitrate_mbps = result.tasks.back().bitrate_mbps;
      } else {
        task.bitrate_mbps = rungs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(rungs.size()) - 1))];
      }
      task.vibration = rng.uniform(0.0, 1.0) < 0.2 ? 0.0 : rng.uniform(0.0, 7.0);
      task.rebuffer_s = rng.uniform(0.0, 1.0) < 0.3 ? rng.uniform(0.0, 4.0) : 0.0;
      task.duration_s = rng.uniform(0.5, 3.0);
      if (i > 0 && task.bitrate_mbps != result.tasks.back().bitrate_mbps &&
          result.tasks.back().bitrate_mbps > 0.0) {
        ++switches;
      }
      result.tasks.push_back(task);
    }
    expect_per_task_sum(result, "session " + std::to_string(session));
    if (n > 20) {
      EXPECT_GT(switches, 0U) << "session " << session;
    }
  }
  EXPECT_EQ(session_mean_qoe(player::PlaybackResult{}, model), 0.0);
}

/// A session whose signal sweeps from -40 to -160 dBm, through both clamps
/// of the radio's energy per MB, and whose throughput drops halfway, so a
/// throughput policy switches rungs.
trace::SessionTraces sweeping_session(double duration_s) {
  auto session = eacs::testing::make_step_session(duration_s, 12.0, 1.5,
                                                  duration_s / 2.0, -90.0, 3.0);
  trace::TimeSeries signal;
  for (const auto& point : session.signal_dbm.samples()) {
    signal.append(point.t_s,
                  std::max(-160.0, -40.0 - 120.0 * point.t_s / duration_s));
  }
  session.signal_dbm = std::move(signal);
  return session;
}

/// compute_metrics prices each task's energy per MB once for both energy
/// totals. Its totals must keep the bits of session_energy_j and of the
/// two-pass sums spelled out here, with and without the tail term.
void expect_one_pass_energies(const player::PlaybackResult& result,
                              const media::VideoManifest& manifest) {
  ASSERT_FALSE(result.tasks.empty());
  const qoe::QoeModel qoe_model;
  power::PowerModelParams with_tail;
  with_tail.tail_energy_j = 0.3;
  for (const power::PowerModel& power_model :
       {power::PowerModel{}, power::PowerModel(with_tail)}) {
    const SessionMetrics metrics =
        compute_metrics("x", 1, result, manifest, qoe_model, power_model);
    const std::size_t lowest = manifest.ladder().lowest_level();
    double played = 0.0;
    double base = 0.0;
    double wasted = 0.0;
    for (const player::TaskRecord& task : result.tasks) {
      power::TaskEnergyInput input;
      input.size_mb = task.size_mb;
      input.bitrate_mbps = task.bitrate_mbps;
      input.signal_dbm = task.signal_dbm;
      input.play_s = task.duration_s;
      input.rebuffer_s = task.rebuffer_s;
      played += power_model.task_energy(input);
      power::TaskEnergyInput lowest_input;
      lowest_input.size_mb =
          manifest.segment_size_megabits(task.segment_index, lowest) / 8.0;
      lowest_input.bitrate_mbps = manifest.ladder().bitrate(lowest);
      lowest_input.signal_dbm = task.signal_dbm;
      lowest_input.play_s = task.duration_s;
      base += power_model.task_energy(lowest_input);
      if (task.wasted_mb > 0.0) {
        wasted += power_model.download_energy(task.wasted_mb,
                                              task.wasted_signal_dbm);
      }
    }
    EXPECT_EQ(metrics.total_energy_j, session_energy_j(result, power_model));
    EXPECT_EQ(metrics.total_energy_j, played + wasted);
    EXPECT_EQ(metrics.base_energy_j, base);
    EXPECT_EQ(metrics.extra_energy_j, (played + wasted) - base);
    EXPECT_EQ(metrics.wasted_energy_j, wasted);
    EXPECT_EQ(metrics.mean_qoe, session_mean_qoe(result, qoe_model));
  }
}

TEST(ComputeMetricsOnePass, CbrRunKeepsTheTwoPassBits) {
  const auto manifest = eacs::testing::make_manifest(90.0, 2.0);
  const player::PlayerSimulator simulator(manifest);
  abr::Festive policy;
  const auto result = simulator.run(policy, sweeping_session(90.0));
  EXPECT_GT(result.switch_count, 0U);
  EXPECT_GT(result.tasks.front().signal_dbm, -50.0);
  EXPECT_LT(result.tasks.back().signal_dbm, -150.0);
  expect_one_pass_energies(result, manifest);
}

TEST(ComputeMetricsOnePass, VbrRunKeepsTheTwoPassBits) {
  const media::VideoManifest manifest("vbr", 90.0, 2.0,
                                      media::BitrateLadder::evaluation14(),
                                      media::VbrModel{0.25});
  const player::PlayerSimulator simulator(manifest);
  abr::Festive policy;
  const auto result = simulator.run(policy, sweeping_session(90.0));
  EXPECT_GT(result.switch_count, 0U);
  expect_one_pass_energies(result, manifest);
}

TEST(ComputeMetricsOnePass, LinkFaultRunKeepsTheTwoPassBits) {
  const auto manifest = eacs::testing::make_manifest(90.0, 2.0);
  const auto session = sweeping_session(90.0);
  net::FaultSpec spec;
  spec.outages.push_back({40.0, 52.0});
  spec.failure_prob = 0.15;
  spec.stall_prob = 0.08;
  spec.seed = 29;
  const net::FaultInjector injector(session.throughput_mbps, spec,
                                    &session.signal_dbm);
  const player::PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(11, "fixed11");
  const auto result =
      eacs::testing::run_with_link_faults(simulator, policy, session, injector);
  EXPECT_GT(result.total_wasted_mb, 0.0);
  EXPECT_GT(session_wasted_energy_j(result, power::PowerModel{}), 0.0);
  expect_one_pass_energies(result, manifest);
}

TEST(EvaluationTest, ProducesAllAlgorithmRows) {
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  const auto algos = result.algorithms();
  ASSERT_EQ(algos.size(), 5U);
  EXPECT_EQ(algos[0], "Youtube");
  EXPECT_EQ(algos[4], "Optimal");
  EXPECT_EQ(result.rows.size(), 10U);  // 5 algorithms x 2 sessions
  EXPECT_THROW(result.row("Nope", 1), std::out_of_range);
}

TEST(EvaluationTest, IncludeBolaAddsRows) {
  EvaluationConfig config;
  config.include_bola = true;
  Evaluation evaluation(config);
  const auto result = evaluation.run(mini_sessions());
  EXPECT_EQ(result.algorithms().size(), 6U);
}

TEST(EvaluationTest, YoutubeConsumesTheMostEnergy) {
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  for (int session_id : {1, 2}) {
    const double youtube = result.row("Youtube", session_id).total_energy_j;
    for (const auto& algo : {"FESTIVE", "BBA", "Ours", "Optimal"}) {
      EXPECT_LE(result.row(algo, session_id).total_energy_j, youtube + 1e-6)
          << algo << " on session " << session_id;
    }
  }
}

TEST(EvaluationTest, OursSavesMoreThanThroughputBaselines) {
  // The headline Fig. 5(b) ordering: Ours/Optimal >> FESTIVE/BBA on energy
  // saving.
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  const double ours = result.mean_energy_saving("Ours");
  const double optimal = result.mean_energy_saving("Optimal");
  const double festive = result.mean_energy_saving("FESTIVE");
  const double bba = result.mean_energy_saving("BBA");
  EXPECT_GT(ours, festive);
  EXPECT_GT(ours, bba);
  EXPECT_GE(optimal, ours - 0.05);  // optimal ~ upper bound (5% slack: the
                                    // planner's oracle model is not the
                                    // simulator)
}

TEST(EvaluationTest, QoeDegradationIsSmall) {
  // Fig. 6(c): a few percent QoE degradation vs YouTube for all adaptive
  // algorithms.
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  for (const auto& algo : {"FESTIVE", "BBA", "Ours", "Optimal"}) {
    EXPECT_LT(result.mean_qoe_degradation(algo), 0.15) << algo;
  }
}

TEST(EvaluationTest, RatioFavoursContextAwareness) {
  // Fig. 7: energy-saving / QoE-degradation ratio of Ours beats FESTIVE and
  // BBA.
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  const double ours = result.saving_degradation_ratio("Ours");
  const double festive = result.saving_degradation_ratio("FESTIVE");
  const double bba = result.saving_degradation_ratio("BBA");
  if (festive > 0.0) {
    EXPECT_GT(ours, festive);
  }
  if (bba > 0.0) {
    EXPECT_GT(ours, bba);
  }
}

TEST(EvaluationTest, ContextAwareAblationSavesEnergyOnShakySession) {
  // Disabling the vibration term makes "Ours" pick higher bitrates on the
  // shaky session -> more energy.
  EvaluationConfig aware_config;
  EvaluationConfig blind_config;
  blind_config.context_aware = false;
  const auto sessions = mini_sessions();
  const auto aware = Evaluation(aware_config).run(sessions);
  const auto blind = Evaluation(blind_config).run(sessions);
  EXPECT_LE(aware.row("Ours", 2).total_energy_j,
            blind.row("Ours", 2).total_energy_j + 1e-6);
}

TEST(EvaluationTest, ManifestForSpecUsesEvaluationLadder) {
  Evaluation evaluation;
  const auto manifest = evaluation.manifest_for(media::evaluation_sessions()[0]);
  EXPECT_EQ(manifest.ladder().size(), 14U);
  EXPECT_DOUBLE_EQ(manifest.segment_duration_s(), 2.0);
  EXPECT_DOUBLE_EQ(manifest.total_duration_s(), 198.0);
}

TEST(EvaluationTest, ExactKeyOnlineCacheIsBitIdenticalToUncached) {
  // The rich-engine default cache mode is exact keys: memoization is a pure
  // speedup, so every row must come out bit-for-bit the same as uncached.
  EvaluationConfig cached_config;
  cached_config.online_cache = core::DecisionCacheConfig{};  // exact = true
  const auto sessions = mini_sessions();
  const auto uncached = Evaluation{}.run(sessions);
  const auto cached = Evaluation(cached_config).run(sessions);
  ASSERT_EQ(cached.rows.size(), uncached.rows.size());
  for (std::size_t i = 0; i < cached.rows.size(); ++i) {
    const auto& a = cached.rows[i];
    const auto& b = uncached.rows[i];
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.mean_qoe, b.mean_qoe);
    EXPECT_EQ(a.mean_bitrate_mbps, b.mean_bitrate_mbps);
    EXPECT_EQ(a.rebuffer_s, b.rebuffer_s);
    EXPECT_EQ(a.switch_count, b.switch_count);
  }
}

/// `session`'s Optimal row as the player prices it under `config`, with the
/// plan built on the vibration estimated under `planned`.
SessionMetrics optimal_row(const EvaluationConfig& config,
                           const trace::SessionTraces& session,
                           const sensors::VibrationConfig& planned) {
  const auto manifest = Evaluation(config).manifest_for(session.spec);
  sensors::VibrationTrack track(session.accel, planned);
  core::PlannedPolicy optimal(core::OptimalPlanner(make_objective(config))
                                  .plan(core::build_task_environments(
                                      manifest, session, track)));
  const auto playback =
      player::PlayerSimulator(manifest, config.player).run(optimal, session);
  return compute_metrics(optimal.name(), session.spec.id, playback, manifest,
                         qoe::QoeModel(config.qoe), power::PowerModel(config.power));
}

TEST(EvaluationTest, OptimalPlansOnThePlayersVibration) {
  // The engine senses, and the accounting prices, the vibration estimated
  // under config.player.vibration, so the Optimal row must plan on that one
  // too, not on the default estimator. Table V's fourth session with a 12 s
  // window and a 2 Hz cutoff, its third with a 0.5 s window and 5 Hz.
  const auto sessions = trace::build_all_sessions();
  struct Probe {
    std::size_t session;
    double window_s;
    double cutoff_hz;
  };
  for (const Probe probe : {Probe{3, 12.0, 2.0}, Probe{2, 0.5, 5.0}}) {
    EvaluationConfig config;
    config.player.vibration.window_s = probe.window_s;
    config.player.vibration.highpass_cutoff_hz = probe.cutoff_hz;
    const auto& session = sessions[probe.session];
    const auto result = Evaluation(config).run({session});
    const auto& row = result.row("Optimal", session.spec.id);
    const auto want = optimal_row(config, session, config.player.vibration);
    EXPECT_EQ(row.total_energy_j, want.total_energy_j) << probe.session;
    EXPECT_EQ(row.mean_qoe, want.mean_qoe) << probe.session;
    // The probe tells the two apart: the default estimator plans otherwise.
    const auto default_plan =
        optimal_row(config, session, sensors::VibrationConfig{});
    EXPECT_NE(default_plan.total_energy_j, want.total_energy_j) << probe.session;
  }
}

TEST(EvaluationTest, InvalidConfigThrows) {
  EvaluationConfig config;
  config.segment_duration_s = 0.0;
  EXPECT_THROW(Evaluation{config}, std::invalid_argument);
}

}  // namespace
}  // namespace eacs::sim
