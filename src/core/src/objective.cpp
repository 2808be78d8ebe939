#include "eacs/core/objective.h"

#include <algorithm>
#include <stdexcept>

#include "eacs/core/cost_stats.h"
#include "eacs/core/cost_table.h"

namespace eacs::core {

Objective::Objective(qoe::QoeModel qoe_model, power::PowerModel power_model,
                     ObjectiveConfig config)
    : qoe_(qoe_model), power_(power_model), config_(config) {
  if (!(config_.alpha >= 0.0 && config_.alpha <= 1.0)) {
    throw std::invalid_argument("Objective: alpha must be in [0, 1]");
  }
  if (!(config_.buffer_threshold_s > 0.0)) {
    throw std::invalid_argument("Objective: buffer threshold must be > 0");
  }
}

double Objective::expected_rebuffer_s(double size_megabits, double bandwidth_mbps,
                                      double buffer_s) const noexcept {
  if (size_megabits <= 0.0) return 0.0;
  if (bandwidth_mbps <= 0.0) return config_.buffer_threshold_s;  // dead link cap
  const double download_s = size_megabits / bandwidth_mbps;
  return std::max(0.0, download_s - std::max(0.0, buffer_s));
}

double Objective::task_energy(const TaskEnvironment& env, std::size_t level,
                              double buffer_s) const {
  if (CostStats* stats = CostStatsScope::current()) ++stats->power_model_evals;
  const double rebuffer = expected_rebuffer_s(env.size_megabits.at(level),
                                              env.bandwidth_mbps, buffer_s);
  return power_.task_energy(task_energy_input(env, level, rebuffer));
}

power::TaskEnergyInput Objective::task_energy_input(const TaskEnvironment& env,
                                                    std::size_t level,
                                                    double rebuffer_s) const {
  const double size_megabits = env.size_megabits.at(level);
  power::TaskEnergyInput input;
  input.size_mb = size_megabits / 8.0;
  // During a task, the player renders content of this task's bitrate for the
  // segment's duration (steady state): the paper's Eq. 8; with rebuffering
  // the stall adds paused-screen time on top (Eq. 9).
  input.bitrate_mbps = size_megabits / std::max(1e-9, env.duration_s);
  input.signal_dbm = env.signal_dbm;
  input.play_s = env.duration_s;
  input.rebuffer_s = rebuffer_s;
  return input;
}

double Objective::task_qoe(const TaskEnvironment& env, std::size_t level,
                           std::optional<std::size_t> prev_level,
                           double buffer_s) const {
  if (CostStats* stats = CostStatsScope::current()) ++stats->qoe_model_evals;
  const double size_megabits = env.size_megabits.at(level);
  const double bitrate = size_megabits / std::max(1e-9, env.duration_s);
  qoe::SegmentContext context;
  context.bitrate_mbps = bitrate;
  context.vibration = config_.context_aware ? env.vibration : 0.0;
  if (prev_level.has_value()) {
    context.prev_bitrate_mbps =
        env.size_megabits.at(*prev_level) / std::max(1e-9, env.duration_s);
  }
  context.rebuffer_s = expected_rebuffer_s(size_megabits, env.bandwidth_mbps, buffer_s);
  return qoe_.segment_qoe(context);
}

double Objective::task_cost(const TaskEnvironment& env, std::size_t level,
                            std::optional<std::size_t> prev_level,
                            double buffer_s) const {
  if (CostStats* stats = CostStatsScope::current()) ++stats->edge_evals;
  const std::size_t top = env.size_megabits.size() - 1;
  const double energy = task_energy(env, level, buffer_s);
  const double energy_max = task_energy(env, top, buffer_s);
  const double quality = task_qoe(env, level, prev_level, buffer_s);
  // Normaliser: the top bitrate's QoE *without* switch/rebuffer context, a
  // per-task constant (as in the paper, where Q(i,M) is the QoE of the
  // highest-bitrate encoding of the segment).
  const double quality_max = task_qoe(env, top, std::nullopt, config_.buffer_threshold_s);
  const double e_term = energy_max > 0.0 ? energy / energy_max : 0.0;
  const double q_term = quality_max > 0.0 ? quality / quality_max : 0.0;
  return config_.alpha * e_term - (1.0 - config_.alpha) * q_term;
}

std::size_t Objective::reference_level(const TaskEnvironment& env,
                                       double buffer_s) const {
  return reference_level(env, buffer_s, task_rungs(*this, env));
}

std::size_t Objective::reference_level(const TaskEnvironment& env,
                                       double buffer_s,
                                       const qoe::RungTerms& rungs) const {
  // Online hot path: one cost table (O(M) model evaluations) instead of
  // re-deriving the per-task normalisers for every candidate (O(M) costs,
  // each re-evaluating 4 models). Bit-identical argmin: the cached costs
  // are bitwise equal to task_cost and the strict-< scan is unchanged.
  const TaskCostTable table(*this, env, buffer_s, rungs);
  std::size_t best = 0;
  double best_cost = table.edge_cost(0);
  for (std::size_t level = 1; level < table.num_levels(); ++level) {
    const double cost = table.edge_cost(level);
    if (cost < best_cost) {
      best_cost = cost;
      best = level;
    }
  }
  if (CostStats* stats = CostStatsScope::current()) {
    stats->edge_evals += table.num_levels();
  }
  return best;
}

}  // namespace eacs::core
