#pragma once
// Deterministic instrumentation for the planner hot path.
//
// The planners certify their precomputed-table speedup with *counters*, not
// wall-clock: the number of QoE/power model evaluations and Eq. 11 edge
// evaluations a plan performs is a pure function of (N, M, code path), so it
// is identical on every machine and every run. A CostStatsScope installs a
// collector on the current thread; Objective, TaskCostTable and the planners
// bump it when one is installed and pay only a thread-local null check when
// none is. Each thread of the parallel experiment engine sees its own scope,
// so counting stays race-free and deterministic.

#include <cstdint>

namespace eacs::core {

/// Counters for one instrumented region (all monotone, all deterministic).
struct CostStats {
  std::uint64_t qoe_model_evals = 0;    ///< segment-QoE-equivalent evaluations
  std::uint64_t power_model_evals = 0;  ///< task-energy model evaluations
  std::uint64_t edge_evals = 0;         ///< Eq. 11 edge-weight evaluations
  std::uint64_t tables_built = 0;       ///< TaskCostTable constructions
  std::uint64_t plans = 0;              ///< planner / selector invocations
  std::uint64_t cache_hits = 0;         ///< DecisionCache lookups served
  std::uint64_t cache_misses = 0;       ///< DecisionCache lookups solved cold
  std::uint64_t cache_evictions = 0;    ///< DecisionCache direct-map displacements

  /// Total model evaluations (the O(N*M) vs O(N*M^2) headline number).
  std::uint64_t model_evals() const noexcept {
    return qoe_model_evals + power_model_evals;
  }

  /// Serial fold for region-sharded counting (DESIGN §6): each region
  /// accumulates into its own CostStats under a CostStatsScope, then the
  /// driver merges shard counters in region order.
  void merge(const CostStats& other) noexcept {
    qoe_model_evals += other.qoe_model_evals;
    power_model_evals += other.power_model_evals;
    edge_evals += other.edge_evals;
    tables_built += other.tables_built;
    plans += other.plans;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evictions += other.cache_evictions;
  }

  void reset() noexcept { *this = CostStats{}; }

  bool operator==(const CostStats&) const = default;
};

/// RAII hook: while alive, cost evaluations on this thread accumulate into
/// the given CostStats. Scopes nest (the innermost wins) and restore the
/// previous collector on destruction.
class CostStatsScope {
 public:
  explicit CostStatsScope(CostStats& stats) noexcept;
  ~CostStatsScope();

  CostStatsScope(const CostStatsScope&) = delete;
  CostStatsScope& operator=(const CostStatsScope&) = delete;

  /// The collector installed on the calling thread, or nullptr.
  static CostStats* current() noexcept;

 private:
  CostStats* previous_;
};

}  // namespace eacs::core
