#pragma once
// Fleet-scale fault domains over the CellNetwork (DESIGN §14).
//
// The fleet simulator's world model (cell_network.h) is a healthy one: cells
// never die, capacity never collapses, arrivals never spike. A
// FleetFaultSpec overlays that world with the failure modes an operator
// actually plans for:
//
//   * cell outages       — a contiguous cell group is dead for an interval;
//                          sessions there must escape or back off
//   * capacity brownouts — a cell group's capacity is scaled down (< 1)
//   * signal collapses   — a cell group's signal floor drops by a dB offset
//   * arrival surges     — the fleet arrival rate is multiplied up for an
//                          interval (flash crowd), warping the arrival
//                          schedule
//
// Episodes come from two sources: a scripted list (explicit intervals) and a
// seeded generator that draws correlated episodes per (fault domain, epoch)
// from sim::seed_mix — no RNG state, so every query is a pure function of
// (spec, cell, time). That purity is what keeps the fleet bit-identical at
// any jobs count (DESIGN §6) and is what makes checkpoint/resume trivial for
// the fault layer: the model is reconstructed from config, never serialized.
//
// Combination rule when episodes overlap: most severe wins — dead is dead,
// the smallest capacity factor applies, the most negative signal offset
// applies, the largest surge multiplier applies.
//
// The overlay is an optional argument of the CellNetwork queries. The empty
// spec is a certified no-op: run_fleet passes a null overlay, so clean-run
// results are bitwise unchanged; arrival_time, always called, is exactly
// session / base_rate without surges.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eacs::sim {

/// Scripted outage: every cell in [first_cell, first_cell + num_cells) is
/// dead during [t0_s, t1_s).
struct CellOutage {
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::size_t first_cell = 0;
  std::size_t num_cells = 1;
};

/// Scripted brownout: the cell group's capacity is multiplied by
/// `capacity_factor` (in (0, 1]) during [t0_s, t1_s).
struct CapacityBrownout {
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::size_t first_cell = 0;
  std::size_t num_cells = 1;
  double capacity_factor = 0.5;
};

/// Scripted signal-floor collapse: every signal the cell group radiates is
/// offset by `offset_db` (<= 0) during [t0_s, t1_s).
struct SignalCollapse {
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::size_t first_cell = 0;
  std::size_t num_cells = 1;
  double offset_db = -18.0;
};

/// Scripted flash crowd: the fleet arrival rate is multiplied by
/// `rate_multiplier` (> 0) during [t0_s, t1_s).
struct ArrivalSurge {
  double t0_s = 0.0;
  double t1_s = 0.0;
  double rate_multiplier = 3.0;
};

/// Seeded correlated-episode generator. Cells are grouped into fault domains
/// of `domain_cells` contiguous cells; time into epochs of `epoch_s`. Each
/// (domain, epoch) pair draws one Bernoulli per fault kind via
/// seed_mix(seed ^ lane, domain, epoch) — stateless, so the episode set is a
/// pure function of this struct. Episodes start at their epoch boundary and
/// run for the configured duration (surge durations are clamped to the epoch
/// so seeded surges never overlap each other).
struct SeededFaultConfig {
  double horizon_s = 0.0;  ///< generate epochs in [0, horizon); 0 disables
  double epoch_s = 60.0;
  std::size_t domain_cells = 4;

  double outage_prob = 0.0;  ///< per (domain, epoch)
  double outage_duration_s = 30.0;

  double brownout_prob = 0.0;
  double brownout_factor = 0.5;
  double brownout_duration_s = 45.0;

  double collapse_prob = 0.0;
  double collapse_db = -18.0;
  double collapse_duration_s = 30.0;

  double surge_prob = 0.0;  ///< per epoch (fleet-wide, not per domain)
  double surge_multiplier = 3.0;
  double surge_duration_s = 20.0;

  std::uint64_t seed = 0xFA17'D0D0ULL;

  bool enabled() const noexcept {
    return horizon_s > 0.0 && (outage_prob > 0.0 || brownout_prob > 0.0 ||
                               collapse_prob > 0.0 || surge_prob > 0.0);
  }
};

/// The full fault overlay: scripted episodes plus the seeded generator.
struct FleetFaultSpec {
  std::vector<CellOutage> outages;
  std::vector<CapacityBrownout> brownouts;
  std::vector<SignalCollapse> collapses;
  std::vector<ArrivalSurge> surges;
  SeededFaultConfig seeded;

  /// True when no fault can ever fire — the certified-no-op configuration.
  bool empty() const noexcept {
    return outages.empty() && brownouts.empty() && collapses.empty() &&
           surges.empty() && !seeded.enabled();
  }
};

/// Materialized fault overlay: scripted and seeded episodes merged into one
/// queryable timeline. Construction validates the spec (throws
/// std::invalid_argument on an empty/reversed interval, a cell range outside
/// the network, a capacity factor outside (0, 1], a positive signal offset,
/// a non-positive surge multiplier, or a malformed seeded config) and
/// precomputes the surge-warped arrival profile. All queries are pure and
/// O(episodes).
class FleetFaultModel {
 public:
  FleetFaultModel(const FleetFaultSpec& spec, std::size_t num_cells);

  /// True when no episode exists: every query returns its neutral value.
  bool empty() const noexcept {
    return outages_.empty() && brownouts_.empty() && collapses_.empty() &&
           profile_.empty();
  }

  /// Is `cell` inside an active outage at `t_s`?
  bool cell_dead(std::size_t cell, double t_s) const noexcept;

  /// Brownout capacity multiplier for `cell` at `t_s`: 1 when healthy, the
  /// most severe (smallest) active factor otherwise. Outages are not folded
  /// in — a dead cell is gated by cell_dead, not by zero capacity.
  double capacity_factor(std::size_t cell, double t_s) const noexcept;

  /// Signal offset for `cell` at `t_s` [dB]: 0 when healthy, the most
  /// negative active collapse offset otherwise.
  double signal_offset_db(std::size_t cell, double t_s) const noexcept;

  /// True when any arrival surge exists (scripted or seeded).
  bool has_surges() const noexcept { return !profile_.empty(); }

  /// Arrival time of fleet session `session` under the surge-warped
  /// schedule: the t with integral_0^t multiplier(u) du == session /
  /// base_rate. Reduces to session / base_rate exactly when no surge covers
  /// the interval. Strictly increasing in `session`.
  double arrival_time(std::size_t session, double base_rate_per_s) const noexcept;

  // Materialized episode lists (scripted + seeded, in timeline order) —
  // exposed for the fault study's reporting.
  const std::vector<CellOutage>& outages() const noexcept { return outages_; }
  const std::vector<CapacityBrownout>& brownouts() const noexcept {
    return brownouts_;
  }
  const std::vector<SignalCollapse>& collapses() const noexcept {
    return collapses_;
  }

 private:
  // Piecewise-constant arrival-rate multiplier: segment i covers
  // [t0_s, next.t0_s) with multiplier rate_mult and cumulative
  // multiplier-seconds cum_units at its left edge. The last segment has
  // multiplier 1 and extends to infinity.
  struct SurgeSegment {
    double t0_s = 0.0;
    double rate_mult = 1.0;
    double cum_units = 0.0;
  };

  std::vector<CellOutage> outages_;
  std::vector<CapacityBrownout> brownouts_;
  std::vector<SignalCollapse> collapses_;
  std::vector<SurgeSegment> profile_;  // empty when no surges
};

}  // namespace eacs::sim
