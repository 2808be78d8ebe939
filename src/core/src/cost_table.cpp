#include "eacs/core/cost_table.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "eacs/core/cost_stats.h"

namespace eacs::core {
namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

qoe::RungTerms task_rungs(const Objective& objective,
                          const TaskEnvironment& env) {
  std::vector<double> bitrates;
  bitrates.reserve(env.size_megabits.size());
  for (const double size_megabits : env.size_megabits) {
    bitrates.push_back(size_megabits / std::max(1e-9, env.duration_s));
  }
  return objective.qoe_model().rung_terms(bitrates);
}

bool same_ladder(const TaskEnvironment& a, const TaskEnvironment& b) noexcept {
  return same_bits(a.duration_s, b.duration_s) &&
         std::equal(a.size_megabits.begin(), a.size_megabits.end(),
                    b.size_megabits.begin(), b.size_megabits.end(), same_bits);
}

TaskCostTable::TaskCostTable(const Objective& objective,
                             const TaskEnvironment& env, double buffer_s)
    : TaskCostTable(objective, env, buffer_s, task_rungs(objective, env)) {}

TaskCostTable::TaskCostTable(const Objective& objective,
                             const TaskEnvironment& env, double buffer_s,
                             const qoe::RungTerms& rungs) {
  if (env.size_megabits.empty()) {
    throw std::invalid_argument(
        "TaskCostTable: empty bitrate ladder (no candidate sizes)");
  }
  const std::size_t m = env.size_megabits.size();
  if (rungs.quality.size() != m || rungs.bitrate_mbps.size() != m ||
      rungs.rate_factor.size() != m) {
    throw std::invalid_argument(
        "TaskCostTable: rung terms do not match the task's ladder");
  }
  const qoe::QoeModel& qoe = objective.qoe_model();
  const qoe::QoeModelParams& qoe_params = qoe.params();
  const ObjectiveConfig& config = objective.config();

  alpha_ = config.alpha;
  one_minus_alpha_ = 1.0 - config.alpha;
  switch_penalty_ = qoe_params.switch_penalty;
  mos_min_ = qoe_params.mos_min;
  mos_max_ = qoe_params.mos_max;

  // One block for the eight columns; the loops below write every slot.
  m_ = m;
  block_ = std::make_unique_for_overwrite<double[]>(8 * m);
  energy_ = block_.get();
  e_term_ = energy_ + m;
  e_cost_ = e_term_ + m;
  quality_base_ = e_cost_ + m;
  original_quality_ = quality_base_ + m;
  bitrate_mbps_ = original_quality_ + m;
  rebuffer_s_ = bitrate_mbps_ + m;
  rebuffer_impair_ = rebuffer_s_ + m;

  // Exactly the vibration input task_qoe builds (context_aware ablation),
  // and the table's one pow: kappa * v^alpha_v.
  const double vibration = config.context_aware ? env.vibration : 0.0;
  const double weight = qoe.vibration_weight(vibration);
  // The radio's e(s) of the task's signal, the table's one exp: every level
  // downloads at that signal.
  const power::PowerModel& power = objective.power_model();
  const double j_per_mb = power.energy_per_mb(env.signal_dbm);
  CostStats* stats = CostStatsScope::current();
  for (std::size_t level = 0; level < m; ++level) {
    // task_energy's rebuffer estimate, input and model body, verbatim, on
    // the shared e(s); the one estimate also feeds the QoE's stall term.
    rebuffer_s_[level] = objective.expected_rebuffer_s(
        env.size_megabits[level], env.bandwidth_mbps, buffer_s);
    energy_[level] = power.task_energy(
        objective.task_energy_input(env, level, rebuffer_s_[level]), j_per_mb);
    if (stats) ++stats->power_model_evals;
    // task_qoe's subexpressions, verbatim: q0 and I(v, r) from the rung
    // terms, then the rebuffer impairment.
    bitrate_mbps_[level] = rungs.bitrate_mbps[level];
    original_quality_[level] = rungs.quality[level];
    quality_base_[level] =
        original_quality_[level] -
        qoe.vibration_impairment(rungs, level, vibration, weight);
    rebuffer_impair_[level] =
        qoe_params.rebuffer_penalty_per_s * std::max(0.0, rebuffer_s_[level]);
    if (stats) ++stats->qoe_model_evals;  // q0 + I together = one segment eval
  }

  // task_cost's normalisers: energy at the top rung with the same buffer
  // (bitwise the energy_[m-1] just computed: the same body and arguments),
  // and task_qoe(env, m - 1, nullopt, threshold): the top rung's q0 - I with
  // no switch term and the config threshold's rebuffer estimate.
  energy_max_ = energy_[m - 1];
  quality_max_ = qoe.segment_qoe_from_base(
      quality_base_[m - 1], 0.0,
      objective.expected_rebuffer_s(env.size_megabits[m - 1],
                                    env.bandwidth_mbps,
                                    config.buffer_threshold_s));
  if (stats) ++stats->qoe_model_evals;

  for (std::size_t level = 0; level < m; ++level) {
    e_term_[level] = energy_max_ > 0.0 ? energy_[level] / energy_max_ : 0.0;
    e_cost_[level] = alpha_ * e_term_[level];
  }
  if (stats) ++stats->tables_built;
}

void TaskCostTable::reweight(double alpha) noexcept {
  alpha_ = alpha;
  one_minus_alpha_ = 1.0 - alpha;
  for (std::size_t level = 0; level < m_; ++level) {
    e_cost_[level] = alpha_ * e_term_[level];
  }
}

std::vector<TaskCostTable> build_cost_tables(
    const Objective& objective, std::span<const TaskEnvironment> tasks,
    double buffer_s) {
  if (tasks.empty()) {
    throw std::invalid_argument("build_cost_tables: no tasks");
  }
  const TaskEnvironment& first = tasks.front();
  const std::size_t m = first.size_megabits.size();
  // One set of rung terms for every task on the first task's ladder; a VBR
  // task or a shorter last segment builds its own.
  const qoe::RungTerms shared = task_rungs(objective, first);
  std::vector<TaskCostTable> tables;
  tables.reserve(tasks.size());
  for (const TaskEnvironment& env : tasks) {
    if (env.size_megabits.size() != m) {
      throw std::invalid_argument("build_cost_tables: ragged task ladder");
    }
    if (same_ladder(env, first)) {
      tables.emplace_back(objective, env, buffer_s, shared);
    } else {
      tables.emplace_back(objective, env, buffer_s);
    }
  }
  return tables;
}

}  // namespace eacs::core
