#pragma once
// Sensor-fault study (extension; sibling of fault_study.h).
//
// The fault-tolerance study stresses the *link*; this study stresses the
// *sensing*. It replays every Table V session with the context-aware
// algorithm while a sensors::SensorFaultInjector corrupts what the policy
// perceives (the link and the true context that prices energy/QoE stay
// clean), sweeping fault scenario x intensity, and reports the QoE/energy
// deviation of degraded-context Ours against clean-context Ours and against
// a context-blind baseline (BBA) — i.e. how much of the paper's
// context-awareness benefit survives each failure mode, and whether graceful
// degradation keeps the damage bounded by what ignoring context entirely
// would cost. Deterministic in (config, seed).

#include <cstdint>
#include <vector>

#include "eacs/sim/study.h"

namespace eacs::sim {

/// Failure modes swept by the study. The accel scenarios map onto
/// sensors::SensorFaultType; the last two add signal loss and a mixed
/// seeded-random storm over both streams.
enum class SensorFaultScenario {
  kDropout,
  kStuckAt,
  kNoiseBurst,
  kSaturation,
  kNanCorruption,
  kRateCollapse,
  kSignalDropout,  ///< telephony readings suppressed; accel untouched
  kCombined,       ///< random episodes across both streams, all fault types
};

/// Stable lower-case identifier (tables, CSV, logs).
const char* to_string(SensorFaultScenario scenario) noexcept;

/// All scenarios, in sweep order.
std::vector<SensorFaultScenario> all_sensor_fault_scenarios();

/// Sweep configuration.
struct SensorFaultStudyConfig {
  EvaluationConfig evaluation;

  /// Scenarios to sweep; empty = all_sensor_fault_scenarios().
  std::vector<SensorFaultScenario> scenarios;

  /// Fraction of the session spent inside fault episodes, per scenario.
  /// 1.0 = the whole session (e.g. total accelerometer loss).
  std::vector<double> intensities = {0.25, 1.0};

  /// Scripted episode length used to lay out periodic episodes at
  /// intensities below 1.
  double episode_length_s = 20.0;

  /// kCombined: random-episode densities at intensity 1 (scaled linearly).
  double combined_accel_rate_per_min = 3.0;
  double combined_signal_rate_per_min = 1.5;

  std::uint64_t seed = 0x5E50'FA17'57D1ULL;
};

/// One (scenario, intensity) grid point: degraded-context Ours aggregated
/// across the Table V sessions.
struct SensorFaultCell : StudyTotals {
  SensorFaultScenario scenario = SensorFaultScenario::kDropout;
  double intensity = 0.0;

  /// Mean |perceived - true| vibration over all tasks (m/s^2): how wrong the
  /// policy's picture of the world was.
  double mean_context_error = 0.0;

  /// Deltas vs. clean-context Ours over the same sessions.
  double qoe_delta_vs_clean = 0.0;
  double energy_delta_vs_clean_j = 0.0;
  double rebuffer_delta_vs_clean_s = 0.0;

  /// Deltas vs. the context-blind baseline (positive qoe delta = degraded
  /// Ours still beats ignoring context entirely).
  double qoe_delta_vs_blind = 0.0;
  double energy_delta_vs_blind_j = 0.0;
};

/// Aggregate of one reference algorithm across the sessions.
using SensorFaultBaseline = StudyTotals;

/// Full sweep outcome.
struct SensorFaultStudyResult {
  SensorFaultBaseline clean_ours;      ///< clean-context Ours
  SensorFaultBaseline context_blind;   ///< clean BBA (reads no context)
  std::vector<SensorFaultCell> cells;  ///< scenario-major, intensity-minor

  /// Throws std::out_of_range when the cell is absent.
  const SensorFaultCell& cell(SensorFaultScenario scenario,
                              double intensity) const;
};

/// Runs the sweep on the shared study harness (study.h): deterministic in
/// config.seed and bit-identical at any job count. Throws
/// std::invalid_argument naming the field on an empty intensity axis, an
/// episode length that is not finite and positive, or an intensity or
/// combined rate that is not finite and non-negative.
SensorFaultStudyResult run_sensor_fault_study(
    const SensorFaultStudyConfig& config = {});

}  // namespace eacs::sim
