#pragma once
// Precomputed per-task cost tables — the planner hot path.
//
// Objective::task_cost prices one Fig. 4 edge with ~6 fresh model calls
// (two pow/exp-heavy QoE evaluations, two power evaluations and the
// normaliser lookups). The planners evaluate O(N*M^2) edges per plan, yet
// per task only O(M) quantities actually vary: the per-level energy, the
// original quality, the vibration impairment and the rebuffer estimate.
// A TaskCostTable precomputes those once per TaskEnvironment into flat
// contiguous (SoA) arrays, so an edge weight (j, j') reduces to a handful of
// adds/compares on cached doubles: O(N*M) model evaluations per plan instead
// of O(N*M^2). The radio's energy per MB depends on the task's signal alone,
// so a table evaluates it (one exp) once for its M levels, and its eight
// columns share one allocation (DESIGN §8).
//
// Bit-identity contract: the table replays the *exact* floating-point
// operations of Objective::task_cost — same subexpressions, same evaluation
// order, clamps applied per edge — so cached plans are bitwise equal to the
// uncached formulation. tests/property/cost_table_properties_test.cpp
// asserts EXPECT_EQ on doubles for every consumer; do not "simplify" the
// arithmetic here without re-certifying.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "eacs/core/objective.h"
#include "eacs/core/task.h"
#include "eacs/qoe/model.h"

namespace eacs::core {

/// Cached Eq. 11 edge-cost evaluator for one task environment. Move-only:
/// its columns point into one owned block.
class TaskCostTable {
 public:
  /// Precomputes all per-level components of task_cost(env, *, *, buffer_s).
  /// Performs (and counts) M power-model and M+1 QoE-model evaluations, the
  /// M power evaluations on one energy_per_mb of the task's signal (one
  /// exp); every edge_cost call afterwards performs none. Throws
  /// std::invalid_argument on an empty ladder.
  TaskCostTable(const Objective& objective, const TaskEnvironment& env,
                double buffer_s);

  /// The same table, reading q0(r) and r^beta_r from `rungs` and computing
  /// v^alpha_v once (DESIGN §8). `rungs` must be the QoE model's rung_terms
  /// of this task's bitrates, size / max(1e-9, duration); build_cost_tables
  /// shares one set across the tasks of one ladder. The counted evaluations
  /// are the same. Throws std::invalid_argument on an empty ladder or rung
  /// terms of another length.
  TaskCostTable(const Objective& objective, const TaskEnvironment& env,
                double buffer_s, const qoe::RungTerms& rungs);

  std::size_t num_levels() const noexcept { return m_; }

  /// Edge weight with no switch coupling (first task / reference level):
  /// bitwise equal to Objective::task_cost(env, level, std::nullopt, buffer_s).
  double edge_cost(std::size_t level) const noexcept {
    // Mirrors segment_qoe's subtraction chain: (q0 - vib) - switch(=0) - rebuf.
    double quality = quality_base_[level] - 0.0;
    quality -= rebuffer_impair_[level];
    return weigh(level, quality);
  }

  /// Edge weight with switch coupling: bitwise equal to
  /// Objective::task_cost(env, level, prev_level, buffer_s).
  double edge_cost(std::size_t level, std::size_t prev_level) const noexcept {
    double quality = quality_base_[level] - switch_impair(level, prev_level);
    quality -= rebuffer_impair_[level];
    return weigh(level, quality);
  }

  /// Re-weights the alpha-dependent derived terms in place; the cached
  /// energy/QoE components are alpha-independent, so an alpha sweep (the
  /// Pareto front) builds tables once and re-weights per sample.
  void reweight(double alpha) noexcept;

  // Component accessors (certification tests and introspection); each
  // throws std::out_of_range unless level < num_levels().
  double energy(std::size_t level) const { return at(energy_, level); }
  double energy_max() const noexcept { return energy_max_; }
  double quality_base(std::size_t level) const { return at(quality_base_, level); }
  double original_quality(std::size_t level) const {
    return at(original_quality_, level);
  }
  double rebuffer_s(std::size_t level) const { return at(rebuffer_s_, level); }
  double quality_max() const noexcept { return quality_max_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double at(const double* column, std::size_t level) const {
    if (level >= m_) throw std::out_of_range("TaskCostTable: level out of range");
    return column[level];
  }

  // Inline, with edge_cost, so the planners' DP loops make no calls.
  double switch_impair(std::size_t level, std::size_t prev_level) const noexcept {
    // switch_impairment guards on the *previous* bitrate only.
    if (bitrate_mbps_[prev_level] <= 0.0) return 0.0;
    return switch_penalty_ *
           std::fabs(original_quality_[level] - original_quality_[prev_level]);
  }

  double weigh(std::size_t level, double quality) const noexcept {
    // segment_qoe's final clamp, then task_cost's weighted sum, verbatim.
    quality = std::clamp(quality, mos_min_, mos_max_);
    const double q_term = quality_max_ > 0.0 ? quality / quality_max_ : 0.0;
    return e_cost_[level] - one_minus_alpha_ * q_term;
  }

  // Per-level components (SoA): eight columns of m_ doubles in one block.
  // The columns are pointers, not offsets from the block: the DP's size_t
  // stores could alias a size_t offset and reload it on every edge. The
  // defaulted moves carry the block and its column pointers together.
  std::unique_ptr<double[]> block_;
  std::size_t m_ = 0;
  double* energy_ = nullptr;            ///< task_energy(env, j, buffer_s)
  double* e_term_ = nullptr;            ///< energy[j]/energy_max (guarded)
  double* e_cost_ = nullptr;            ///< alpha * e_term[j]
  double* quality_base_ = nullptr;      ///< q0(r_j) - I(v, r_j)
  double* original_quality_ = nullptr;  ///< q0(r_j), feeds the switch term
  double* bitrate_mbps_ = nullptr;      ///< r_j, guards the switch term
  double* rebuffer_s_ = nullptr;        ///< expected stall at this level
  double* rebuffer_impair_ = nullptr;   ///< mu * max(0, rebuffer_s[j])

  // Per-task scalars.
  double energy_max_ = 0.0;    ///< task_energy at the top rung (normaliser)
  double quality_max_ = 0.0;   ///< top-rung QoE normaliser (Q(i,M))
  double alpha_ = 0.5;
  double one_minus_alpha_ = 0.5;
  double switch_penalty_ = 0.0;
  double mos_min_ = 1.0;
  double mos_max_ = 5.0;
};

/// The QoE model's rung terms of `env`'s bitrates, size / max(1e-9,
/// duration): the terms the three-argument TaskCostTable constructor builds.
qoe::RungTerms task_rungs(const Objective& objective, const TaskEnvironment& env);

/// Equal durations and candidate sizes as bit patterns, hence bitwise equal
/// bitrates and task_rungs: the rule by which tasks share one set of rung
/// terms.
bool same_ladder(const TaskEnvironment& a, const TaskEnvironment& b) noexcept;

/// Builds one table per task. Throws std::invalid_argument on empty tasks,
/// an empty ladder, or a ragged ladder (tasks with differing level counts).
/// Takes a span so callers can price a window of a larger task sequence
/// without copying (the rolling-horizon planner and the decision cache both
/// slice prebuilt windows). The tasks whose duration and candidate sizes
/// equal the first task's, as bit patterns, share one set of rung terms;
/// any other task builds its own.
std::vector<TaskCostTable> build_cost_tables(
    const Objective& objective, std::span<const TaskEnvironment> tasks,
    double buffer_s);

}  // namespace eacs::core
