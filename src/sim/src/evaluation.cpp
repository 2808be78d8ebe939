#include "eacs/sim/evaluation.h"

#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/abr/bola.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/online.h"
#include "eacs/core/optimal.h"
#include "eacs/player/session_engine.h"
#include "eacs/util/thread_pool.h"

namespace eacs::sim {

std::vector<SessionMetrics> EvaluationResult::rows_for(
    const std::string& algorithm) const {
  std::vector<SessionMetrics> out;
  for (const auto& r : rows) {
    if (r.algorithm == algorithm) out.push_back(r);
  }
  return out;
}

const SessionMetrics& EvaluationResult::row(const std::string& algorithm,
                                            int session_id) const {
  for (const auto& r : rows) {
    if (r.algorithm == algorithm && r.session_id == session_id) return r;
  }
  throw std::out_of_range("EvaluationResult: no row for " + algorithm + "/" +
                          std::to_string(session_id));
}

std::vector<std::string> EvaluationResult::algorithms() const {
  std::vector<std::string> names;
  for (const auto& r : rows) {
    bool seen = false;
    for (const auto& name : names) {
      if (name == r.algorithm) {
        seen = true;
        break;
      }
    }
    if (!seen) names.push_back(r.algorithm);
  }
  return names;
}

double EvaluationResult::mean_energy_saving(const std::string& algorithm,
                                            const std::string& reference) const {
  const auto algo_rows = rows_for(algorithm);
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& r : algo_rows) {
    const auto& ref = row(reference, r.session_id);
    if (ref.total_energy_j > 0.0) {
      total += 1.0 - r.total_energy_j / ref.total_energy_j;
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

double EvaluationResult::mean_extra_energy_saving(const std::string& algorithm,
                                                  const std::string& reference) const {
  const auto algo_rows = rows_for(algorithm);
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& r : algo_rows) {
    const auto& ref = row(reference, r.session_id);
    if (ref.extra_energy_j > 0.0) {
      total += 1.0 - r.extra_energy_j / ref.extra_energy_j;
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

double EvaluationResult::mean_qoe(const std::string& algorithm) const {
  const auto algo_rows = rows_for(algorithm);
  double total = 0.0;
  for (const auto& r : algo_rows) total += r.mean_qoe;
  return algo_rows.empty() ? 0.0 : total / static_cast<double>(algo_rows.size());
}

double EvaluationResult::mean_qoe_degradation(const std::string& algorithm,
                                              const std::string& reference) const {
  const auto algo_rows = rows_for(algorithm);
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& r : algo_rows) {
    const auto& ref = row(reference, r.session_id);
    if (ref.mean_qoe > 0.0) {
      total += 1.0 - r.mean_qoe / ref.mean_qoe;
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

double EvaluationResult::saving_degradation_ratio(const std::string& algorithm,
                                                  const std::string& reference) const {
  const double saving = mean_energy_saving(algorithm, reference);
  const double degradation = mean_qoe_degradation(algorithm, reference);
  if (degradation <= 0.0) return 0.0;
  return saving / degradation;
}

core::Objective make_objective(const EvaluationConfig& config) {
  core::ObjectiveConfig objective;
  objective.alpha = config.alpha;
  objective.buffer_threshold_s = config.player.buffer_threshold_s;
  objective.context_aware = config.context_aware;
  return core::Objective(qoe::QoeModel(config.qoe),
                         power::PowerModel(config.power), objective);
}

Evaluation::Evaluation(EvaluationConfig config) : config_(std::move(config)) {
  if (config_.segment_duration_s <= 0.0) {
    throw std::invalid_argument("Evaluation: segment duration must be > 0");
  }
}

media::VideoManifest Evaluation::manifest_for(const media::SessionSpec& spec) const {
  return media::VideoManifest("trace" + std::to_string(spec.id), spec.length_s,
                              config_.segment_duration_s,
                              media::BitrateLadder::evaluation14(),
                              media::VbrModel{config_.vbr_amplitude});
}

EvaluationResult Evaluation::run() const {
  return run(trace::build_all_sessions(config_.session_options));
}

EvaluationResult Evaluation::run(
    const std::vector<trace::SessionTraces>& sessions) const {
  // One unit of work per session: everything a unit touches is built inside
  // run_session from the session alone, so units are pure in their index and
  // can run on any worker.
  const auto per_session = util::parallel_map(
      config_.exec.resolved_jobs(), sessions.size(), [&](std::size_t s) {
        return run_session(sessions[s],
                           player::SoloLinkModel(sessions[s].throughput_mbps));
      });
  EvaluationResult result;
  for (const auto& rows : per_session) {
    result.rows.insert(result.rows.end(), rows.begin(), rows.end());
  }
  return result;
}

std::vector<SessionMetrics> Evaluation::run_session(
    const trace::SessionTraces& session, const player::LinkModel& link) const {
  const qoe::QoeModel qoe_model(config_.qoe);
  const power::PowerModel power_model(config_.power);
  const core::Objective objective = make_objective(config_);
  const media::VideoManifest manifest = manifest_for(session.spec);
  // What PlayerSimulator::run plays, with one vibration track shared by the
  // planner's task environments and every policy's run: the trace is
  // streamed once per session, under the config the engine senses with.
  const player::SessionEngine engine(
      player::SessionEngineConfig{.player = config_.player});
  sensors::VibrationTrack track(session.accel, config_.player.vibration);

  // Fresh policy instances per session; the optimal plan is per-session.
  abr::FixedBitrate youtube;
  abr::Festive festive;
  abr::Bba bba(5.0, config_.player.buffer_threshold_s);
  core::OnlineBitrateSelector ours(
      objective,
      {.startup_level = config_.online_startup_level,
       .cache = config_.online_cache
                    ? std::make_shared<core::DecisionCache>(*config_.online_cache)
                    : nullptr});
  const auto tasks = core::build_task_environments(manifest, session, track);
  core::OptimalPlanner planner(objective);
  core::PlannedPolicy optimal(planner.plan(tasks));

  std::vector<player::AbrPolicy*> policies = {&youtube, &festive, &bba, &ours,
                                              &optimal};
  abr::Bola bola(5.0, config_.player.buffer_threshold_s);
  if (config_.include_bola) policies.push_back(&bola);

  std::vector<SessionMetrics> rows;
  rows.reserve(policies.size());
  for (player::AbrPolicy* policy : policies) {
    player::SessionClient client{&manifest, policy, &session};
    client.vibration_track = &track;
    const auto playback = engine.run(client, link);
    rows.push_back(compute_metrics(policy->name(), session.spec.id, playback,
                                   manifest, qoe_model, power_model));
  }
  return rows;
}

}  // namespace eacs::sim
