#include "eacs/sim/fault_study.h"

#include <cmath>
#include <map>
#include <stdexcept>

#include "eacs/net/fault_injector.h"
#include "eacs/player/session_engine.h"
#include "eacs/sim/seed_mix.h"

namespace eacs::sim {

const FaultCell& FaultStudyResult::cell(const std::string& algorithm,
                                        double outage_rate_per_min,
                                        double failure_prob) const {
  for (const auto& c : cells) {
    if (c.algorithm == algorithm &&
        std::fabs(c.outage_rate_per_min - outage_rate_per_min) < 1e-12 &&
        std::fabs(c.failure_prob - failure_prob) < 1e-12) {
      return c;
    }
  }
  throw std::out_of_range("FaultStudyResult: no cell for " + algorithm);
}

FaultStudyResult run_fault_study(const FaultStudyConfig& config) {
  if (config.outage_rates_per_min.empty() || config.failure_probs.empty()) {
    throw std::invalid_argument("run_fault_study: empty sweep axes");
  }

  const Evaluation evaluation(config.evaluation);
  const auto sessions = trace::build_all_sessions(config.evaluation.session_options);
  const std::size_t n_sessions = sessions.size();

  // Points [0, P) are the grid: point = outage-rate index * |failure probs|
  // + failure-prob index, with fault seed seed_mix(config.seed, point,
  // session id). Point P is the fault-free baseline every cell's deltas are
  // taken against. Each unit plays the evaluation's roster over one session
  // (Evaluation::run_session), so the session's vibration trace is streamed
  // once per unit. Totals are keyed by algorithm, so cells list in name
  // order.
  const std::size_t n_probs = config.failure_probs.size();
  const std::size_t n_points = config.outage_rates_per_min.size() * n_probs;
  std::vector<std::map<std::string, FaultCell>> totals(n_points + 1);
  run_grid(
      config.evaluation.exec.resolved_jobs(), totals.size(), n_sessions,
      [&](std::size_t point, std::size_t s) {
        const auto& session = sessions[s];
        if (point == n_points) {
          return evaluation.run_session(
              session, player::SoloLinkModel(session.throughput_mbps));
        }
        net::FaultSpec spec;
        spec.outage_rate_per_min = config.outage_rates_per_min[point / n_probs];
        spec.outage_mean_s = config.outage_mean_s;
        spec.failure_prob = config.failure_probs[point % n_probs];
        if (spec.failure_prob > 0.0) {
          spec.signal_failure_per_db = config.signal_failure_per_db;
          spec.signal_threshold_dbm = config.signal_threshold_dbm;
        }
        spec.seed = seed_mix(config.seed, point, session.spec.id);
        const net::FaultInjector faults(session.throughput_mbps, spec,
                                        &session.signal_dbm);
        return evaluation.run_session(session, player::FaultLinkModel(faults));
      },
      [&](std::size_t point, std::size_t, const auto& metrics) {
        for (const auto& m : metrics) {
          totals[point][m.algorithm].add(m, n_sessions);
        }
      });

  const auto& baseline = totals.back();
  FaultStudyResult result;
  for (std::size_t point = 0; point < n_points; ++point) {
    for (auto& [name, cell] : totals[point]) {
      cell.outage_rate_per_min = config.outage_rates_per_min[point / n_probs];
      cell.failure_prob = config.failure_probs[point % n_probs];
      const FaultCell& base = baseline.at(name);
      cell.qoe_delta = cell.mean_qoe - base.mean_qoe;
      cell.energy_delta_j = cell.total_energy_j - base.total_energy_j;
      cell.rebuffer_delta_s = cell.rebuffer_s - base.rebuffer_s;
      result.cells.push_back(cell);
    }
  }
  return result;
}

}  // namespace eacs::sim
