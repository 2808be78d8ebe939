#include "eacs/sim/study.h"

namespace eacs::sim {

StudySessions::StudySessions(const EvaluationConfig& evaluation)
    : qoe_model(evaluation.qoe),
      power_model(evaluation.power),
      objective(make_objective(evaluation)) {
  const Evaluation manifest_source(evaluation);  // validates the config
  sessions = trace::build_all_sessions(evaluation.session_options);
  manifests.reserve(sessions.size());
  simulators.reserve(sessions.size());
  for (const auto& session : sessions) {
    manifests.push_back(manifest_source.manifest_for(session.spec));
    simulators.emplace_back(manifests.back(), evaluation.player);
  }
}

SessionMetrics StudySessions::metrics(
    const std::string& algorithm, std::size_t s,
    const player::PlaybackResult& playback) const {
  return compute_metrics(algorithm, sessions[s].spec.id, playback,
                         manifests[s], qoe_model, power_model);
}

void StudyTotals::add(const SessionMetrics& m, std::size_t sessions) {
  const auto n = static_cast<double>(sessions);
  algorithm = m.algorithm;
  mean_qoe += m.mean_qoe / n;
  total_energy_j += m.total_energy_j;
  wasted_energy_j += m.wasted_energy_j;
  rebuffer_s += m.rebuffer_s;
  mean_bitrate_mbps += m.mean_bitrate_mbps / n;
  retries += m.retries;
  abandoned_segments += m.abandoned_segments;
}

}  // namespace eacs::sim
