#pragma once
// Fault-tolerance study (extension; sibling of robustness.h).
//
// The seed-robustness study shows the headline results are not an artifact
// of one trace draw; this study shows what happens when the *link itself*
// misbehaves. It sweeps outage density x per-request failure rate over the
// Section V roster (Evaluation::run_session, so BOLA joins it when
// evaluation.include_bola is set and Ours uses evaluation.online_cache),
// replaying every Table V session through a seeded net::FaultInjector and
// the player's retry machinery, and reports QoE / energy / rebuffering /
// wasted-download-energy alongside deltas against each algorithm's
// fault-free baseline. Deterministic in (config, seed).

#include <cstdint>
#include <string>
#include <vector>

#include "eacs/sim/study.h"

namespace eacs::sim {

/// Sweep configuration. The defaults give a 3x3 grid whose (0, 0) corner is
/// the fault-free baseline.
struct FaultStudyConfig {
  EvaluationConfig evaluation;

  /// Random-outage densities to sweep (outages per minute).
  std::vector<double> outage_rates_per_min = {0.0, 0.5, 1.5};
  /// Baseline per-request failure probabilities to sweep.
  std::vector<double> failure_probs = {0.0, 0.05, 0.2};

  double outage_mean_s = 6.0;
  /// Signal coupling fed into every FaultSpec: extra failure probability per
  /// dB below the threshold (weak LTE fails more, as in the paper's power
  /// and signal models).
  double signal_failure_per_db = 0.002;
  double signal_threshold_dbm = -100.0;

  std::uint64_t seed = 0xFA17'57D1ULL;
};

/// One (algorithm, grid point): the algorithm's totals across the Table V
/// sessions.
struct FaultCell : StudyTotals {
  double outage_rate_per_min = 0.0;
  double failure_prob = 0.0;

  /// Deltas vs. the same algorithm's fault-free run over the same sessions.
  double qoe_delta = 0.0;         ///< mean_qoe - baseline mean_qoe
  double energy_delta_j = 0.0;    ///< total_energy_j - baseline
  double rebuffer_delta_s = 0.0;
};

/// Full sweep outcome, one cell per (algorithm, outage rate, failure prob).
struct FaultStudyResult {
  std::vector<FaultCell> cells;

  /// Throws std::out_of_range when the cell is absent.
  const FaultCell& cell(const std::string& algorithm, double outage_rate_per_min,
                        double failure_prob) const;
};

/// Runs the sweep on the shared study harness (study.h): deterministic in
/// config.seed and bit-identical at any job count.
FaultStudyResult run_fault_study(const FaultStudyConfig& config = {});

}  // namespace eacs::sim
