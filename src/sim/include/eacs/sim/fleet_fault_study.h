#pragma once
// Fleet fault study (DESIGN §14; sibling of fault_study.h and
// cdn_fault_study.h, lifted to the population layer).
//
// The session-level studies stress one client's link, sensors, or CDN; this
// study stresses the *infrastructure under a whole fleet*: seeded correlated
// cell outages, regional capacity brownouts, signal-floor collapses, and
// flash-crowd arrival surges (fleet_faults.h), swept over scenario x
// intensity x client policy. Each cell runs the full fleet simulator with
// escape handoffs and bounded backoff (planner-shed only when the caller
// sets the base fleet's shed triggers, which default to off) and reports the
// population QoE / energy / rebuffer aggregates next to the
// degradation-ladder counters — how much service
// survives, what the recovery machinery did, and what it cost. Clean
// per-policy baselines anchor the deltas. Deterministic in (config) at any
// job count, like every §6 study.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eacs/sim/fleet.h"

namespace eacs::sim {

/// Infrastructure failure scenarios swept by the study.
enum class FleetFaultScenario {
  kCellOutages,     ///< seeded correlated cell-group outages
  kBrownout,        ///< regional capacity brownouts
  kSignalCollapse,  ///< signal-floor collapses
  kFlashCrowd,      ///< arrival-rate surges
  kCombined,        ///< all of the above at half strength
};

/// Stable lower-case identifier (tables, CSV, logs).
const char* to_string(FleetFaultScenario scenario) noexcept;

/// All scenarios, in sweep order.
std::vector<FleetFaultScenario> all_fleet_fault_scenarios();

/// Sweep configuration. Intensity scales episode probabilities linearly and
/// interpolates severities between "healthy" and the listed full-strength
/// values; the defaults give a (scenario x {0.5, 1} x {throughput, planner})
/// grid over the base fleet.
struct FleetFaultStudyConfig {
  /// Base fleet (faults and policy are overridden per cell). The resilience
  /// block is used as-is — set shed thresholds here to exercise the
  /// planner-shed ladder.
  FleetConfig fleet;

  /// Scenarios to sweep; empty = all_fleet_fault_scenarios().
  std::vector<FleetFaultScenario> scenarios;
  std::vector<double> intensities = {0.5, 1.0};
  std::vector<FleetPolicy> policies = {FleetPolicy::kThroughput,
                                       FleetPolicy::kPlanner};

  // Seeded-episode shape at intensity 1 ------------------------------------
  double epoch_s = 60.0;
  std::size_t domain_cells = 4;
  double outage_prob = 0.35;
  double outage_duration_s = 45.0;
  double brownout_prob = 0.5;
  double brownout_factor = 0.35;  ///< capacity multiplier at full strength
  double brownout_duration_s = 60.0;
  double collapse_prob = 0.5;
  double collapse_db = -24.0;  ///< signal offset at full strength
  double collapse_duration_s = 45.0;
  double surge_prob = 0.4;
  double surge_multiplier = 4.0;  ///< arrival-rate multiplier at full strength
  double surge_duration_s = 30.0;

  std::uint64_t seed = 0xF1EE'FA17ULL;
};

/// One (scenario, intensity, policy) grid point.
struct FleetFaultStudyCell {
  FleetFaultScenario scenario = FleetFaultScenario::kCellOutages;
  double intensity = 0.0;
  FleetPolicy policy = FleetPolicy::kThroughput;

  FleetMetrics metrics;  ///< the full fleet outcome, counters included

  /// Deltas vs. the clean baseline of the same policy.
  double qoe_delta_vs_clean = 0.0;
  double energy_delta_vs_clean_j = 0.0;  ///< mean per-session energy delta
  double rebuffer_delta_vs_clean_s = 0.0;  ///< mean per-session stall delta
};

/// Full sweep outcome: one clean baseline per policy, then the fault grid.
struct FleetFaultStudyResult {
  std::vector<FleetPolicy> policies;
  std::vector<FleetMetrics> baselines;  ///< parallel to `policies`
  std::vector<FleetFaultStudyCell> cells;  ///< scenario-major, then
                                           ///< intensity, then policy

  /// Throws std::out_of_range when the cell is absent.
  const FleetFaultStudyCell& cell(FleetFaultScenario scenario,
                                  double intensity, FleetPolicy policy) const;
};

/// Runs the sweep. Every cell is one run_fleet call; fault episodes derive
/// from config.seed through the stateless seed_mix draws, so the whole
/// table is reproducible bit-for-bit at any job count.
FleetFaultStudyResult run_fleet_fault_study(
    const FleetFaultStudyConfig& config = {});

}  // namespace eacs::sim
