#pragma once
// The weighted-sum optimisation objective (the paper's Eq. 11).
//
// For task i with bitrate choice j the per-task cost is
//
//     cost(i, j) = alpha * E(i,j)/E(i,M) - (1 - alpha) * Q(i,j)/Q(i,M)
//
// where M indexes the highest ladder bitrate; the normalisers make the two
// units commensurable. alpha = 0 maximises QoE only, alpha = 1 minimises
// energy only; the paper evaluates with alpha = 0.5.

#include <cstddef>
#include <optional>
#include <vector>

#include "eacs/core/task.h"
#include "eacs/power/model.h"
#include "eacs/qoe/model.h"

namespace eacs::core {

/// Objective configuration.
struct ObjectiveConfig {
  double alpha = 0.5;              ///< energy weight in [0, 1]
  double buffer_threshold_s = 30.0;  ///< B: proxy for available drain time
                                     ///< when estimating rebuffering
  bool context_aware = true;       ///< false disables the vibration term in Q
                                   ///< (energy-aware-only ablation)
};

/// Evaluates per-task energy, QoE and weighted cost for candidate bitrates.
class Objective {
 public:
  Objective(qoe::QoeModel qoe_model, power::PowerModel power_model,
            ObjectiveConfig config = {});

  const ObjectiveConfig& config() const noexcept { return config_; }
  const qoe::QoeModel& qoe_model() const noexcept { return qoe_; }
  const power::PowerModel& power_model() const noexcept { return power_; }

  /// Expected stall time for task downloading `size_megabits` at
  /// `bandwidth_mbps` with `buffer_s` of media buffered:
  /// max(0, size/bandwidth - buffer).
  double expected_rebuffer_s(double size_megabits, double bandwidth_mbps,
                             double buffer_s) const noexcept;

  /// Energy of task `env` at ladder level `level` (Eq. 8-10 reconstruction),
  /// including stall energy when the download outlasts `buffer_s`.
  double task_energy(const TaskEnvironment& env, std::size_t level,
                     double buffer_s) const;

  /// The power model's input for task `env` at `level` with `rebuffer_s` of
  /// expected stall: the one place task_energy and TaskCostTable build it.
  power::TaskEnergyInput task_energy_input(const TaskEnvironment& env,
                                           std::size_t level,
                                           double rebuffer_s) const;

  /// QoE of task `env` at `level`; `prev_level` enables the switch term;
  /// stall time (from the same rebuffer estimate as the energy term) is
  /// charged via the rebuffer impairment.
  double task_qoe(const TaskEnvironment& env, std::size_t level,
                  std::optional<std::size_t> prev_level, double buffer_s) const;

  /// Weighted-sum cost (the Eq. 11 summand / the Fig. 4 edge weight).
  double task_cost(const TaskEnvironment& env, std::size_t level,
                   std::optional<std::size_t> prev_level, double buffer_s) const;

  /// argmin over the ladder of task_cost with no switch term — Algorithm 1's
  /// reference-bitrate computation (line 4).
  std::size_t reference_level(const TaskEnvironment& env, double buffer_s) const;

  /// The same, priced with `rungs`, the rung terms of env's ladder
  /// (core::task_rungs): a caller deciding segment after segment on one
  /// ladder builds them once (DESIGN §8). Counts the same CostStats.
  std::size_t reference_level(const TaskEnvironment& env, double buffer_s,
                              const qoe::RungTerms& rungs) const;

 private:
  qoe::QoeModel qoe_;
  power::PowerModel power_;
  ObjectiveConfig config_;
};

}  // namespace eacs::core
