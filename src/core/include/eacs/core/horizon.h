#pragma once
// Rolling-horizon bitrate selection (extension beyond the paper).
//
// The paper's two algorithms sit at the ends of a spectrum: the online
// algorithm optimises each task myopically (horizon 1, plus smoothing
// heuristics), the optimal algorithm optimises all N tasks with oracle
// knowledge. This selector fills the middle: every segment it solves the
// paper's Eq. 11 objective *exactly* (including the switch coupling) over a
// short lookahead window by dynamic programming, holding the estimated
// bandwidth / vibration / signal constant across the window, and commits
// only the first decision (receding horizon). Unlike the heuristic
// smoothing of Algorithm 1, ramp behaviour emerges from the switch term.

#include <memory>
#include <span>

#include "eacs/core/decision_cache.h"
#include "eacs/core/objective.h"
#include "eacs/player/abr_policy.h"

namespace eacs::core {

/// One rolling-horizon decision as a free function: exact Eq. 11 DP with
/// switch coupling over `tasks` (environment already baked into each task),
/// returning the first action of the optimal window path. This is the solver
/// the DecisionCache memoizes — callers canonicalize inputs, bake them into
/// the window tasks, and call this on the representatives. Bumps edge_evals
/// and plans on the installed CostStatsScope. Throws std::invalid_argument
/// on an empty window.
std::size_t plan_horizon_first_action(const Objective& objective,
                                      std::span<const TaskEnvironment> tasks,
                                      double buffer_s,
                                      std::optional<std::size_t> prev_level);

/// Tunables for RollingHorizonSelector.
struct HorizonOptions {
  std::size_t horizon = 5;        ///< lookahead tasks per decision
  std::size_t startup_level = 0;  ///< rung before any throughput sample
  std::string display_name = "Ours-RH";
  /// Optional decision memoization. With the default exact-key cache config
  /// decisions are bit-identical to uncached planning (certified by
  /// tests/differential/); a quantized config trades bounded decision error
  /// for fleet-scale hit rates. The selector owns no cache — share one per
  /// deterministic execution unit, never across threads.
  std::shared_ptr<DecisionCache> cache = nullptr;
};

/// Receding-horizon optimiser over the Eq. 11 objective.
class RollingHorizonSelector final : public player::AbrPolicy {
 public:
  RollingHorizonSelector(Objective objective, HorizonOptions options = {});

  std::string name() const override { return options_.display_name; }
  std::size_t choose_level(const player::AbrContext& context) override;

  const Objective& objective() const noexcept { return objective_; }

 private:
  Objective objective_;
  HorizonOptions options_;
};

}  // namespace eacs::core
