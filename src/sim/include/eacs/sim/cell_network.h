#pragma once
// Sharded multi-cell radio network for the fleet simulator (DESIGN §12).
//
// A CellNetwork is a procedural model of many base stations: each cell has
// its own capacity trajectory (per-cell scale and phase over a shared
// sinusoidal profile), and a session's signal from a cell is a per-(session,
// cell) base level plus a mobility swing whose phase is per cell (ROADMAP.md,
// "Fleet draws that are actually random"). Both derive statelessly from
// sim::seed_mix — no traces are stored, so memory is O(cells) however long
// the run and however many sessions attach. Sessions pick a serving cell by
// signal with a hysteresis margin (a handoff happens only when a neighbour
// beats the serving cell by `hysteresis_db`), the classic guard against
// ping-pong handoffs.
//
// Every query takes an optional fault overlay (fleet_faults.h, DESIGN §14):
// a null overlay is the healthy network, so faulted and clean fleets share
// one signal, one capacity and one cell-choice rule.
//
// Every query is a pure function of (config, overlay, ids, time): two shards
// asking about the same cell see identical answers, which is what lets the
// fleet path shard by region under the DESIGN §6 determinism contract.

#include <cstddef>
#include <cstdint>
#include <span>

namespace eacs::sim {

class FleetFaultModel;

/// A chosen cell and its signal [dBm]: {num_cells(), -inf} when no cell
/// qualified.
struct CellChoice {
  std::size_t cell;
  double dbm;
};

/// Procedural network parameters. Defaults give a city-ish 16-cell layout
/// with 25-55 Mbps cells swinging ±30% over a 90 s period.
struct CellNetworkConfig {
  std::size_t num_cells = 16;

  double mean_capacity_mbps = 40.0;  ///< fleet-wide mean cell capacity
  double capacity_spread = 0.4;      ///< per-cell scale in [1-spread, 1+spread]
  double capacity_sway = 0.3;        ///< sinusoidal swing as a fraction of mean
  double capacity_period_s = 90.0;   ///< period of the capacity sinusoid

  double signal_best_dbm = -65.0;    ///< strongest per-(session, cell) base
  double signal_worst_dbm = -110.0;  ///< weakest per-(session, cell) base
  double signal_swing_db = 12.0;     ///< mobility swing amplitude
  double signal_period_s = 60.0;     ///< mean mobility period (per-pair jitter)

  std::uint64_t seed = 0xCE11'F1EEULL;
};

/// The procedural network. Cheap to copy; all state is the config.
class CellNetwork {
 public:
  /// Throws std::invalid_argument when `num_cells` is zero, a field is not
  /// finite, a period or the mean capacity is not positive, or
  /// `capacity_spread` is outside [0, 1] (a negative per-cell scale would
  /// hold that cell at zero capacity forever).
  explicit CellNetwork(CellNetworkConfig config);

  const CellNetworkConfig& config() const noexcept { return config_; }
  std::size_t num_cells() const noexcept { return config_.num_cells; }

  /// Cell capacity at time `t_s` [Mbps], always >= 0, times the overlay's
  /// brownout factor. Pure in (config, overlay, cell, t_s).
  double capacity_mbps(std::size_t cell, double t_s,
                       const FleetFaultModel* faults = nullptr) const noexcept;

  /// Signal strength session `session_id` sees from `cell` at `t_s` [dBm],
  /// plus the overlay's collapse offset: a stable per-pair base level plus a
  /// sinusoidal mobility swing. The swing's phase is per cell and its period
  /// draw repeats the base draw of (cell + 1, session), a known seeding flaw
  /// (ROADMAP.md, "Fleet draws that are actually random"). Pure in (config,
  /// overlay, ids, t_s).
  double signal_dbm(int session_id, std::size_t cell, double t_s,
                    const FleetFaultModel* faults = nullptr) const noexcept;

  /// Writes the cells of [first_cell, first_cell + count) to `out` in the
  /// order the cell choice walks them: highest per-(session, cell) base
  /// level first, the lower index first among equal bases. The order is a
  /// pure function of (config, session, range) and holds at every instant,
  /// so a caller ranks once per session and keeps it (the fleet keeps one
  /// per arena slot, DESIGN §12). Throws std::invalid_argument unless `out`
  /// holds exactly `count` entries.
  void rank_cells(int session_id, std::size_t first_cell, std::size_t count,
                  std::span<std::size_t> out) const;

  /// Strongest cell for the session at `t_s` in [first_cell, first_cell +
  /// count), lowest index winning ties — the region scan the sharded fleet
  /// path uses so mobility never crosses a shard. Dead cells are never
  /// chosen; returns num_cells() when every cell in the range is dead. The
  /// answer equals an exhaustive scan of every cell's signal_dbm. Ranks the
  /// range, then takes the ranked overload.
  std::size_t best_cell_in(int session_id, double t_s, std::size_t first_cell,
                           std::size_t count,
                           const FleetFaultModel* faults = nullptr) const;

  /// best_cell_in over `ranked`, rank_cells' order for this session and
  /// range, returning the cell with its signal. Walks the order and stops
  /// at the first live cell whose signal bound cannot reach the best so far
  /// (DESIGN §12), so its answer is the range overload's, bit for bit.
  CellChoice best_cell_in(int session_id, double t_s,
                          std::span<const std::size_t> ranked,
                          const FleetFaultModel* faults = nullptr) const noexcept;

  /// Hysteresis handoff rule: returns the cell the session should be served
  /// by, given it is currently on `current`, a cell of the range. Switches
  /// to the best in-range cell only when that cell's signal beats `current`
  /// by more than `hysteresis_db`; otherwise sticks (anti-ping-pong). A dead
  /// `current` escapes to the best live cell with no margin, or returns
  /// num_cells() when the whole range is dead. For every margin, NaN and
  /// negative included, the answer equals the exhaustive rule's
  /// (best_cell_in, then `signal(best) - signal(current) > hysteresis_db`).
  /// Ranks the range, then takes the ranked overload.
  std::size_t serving_cell(int session_id, std::size_t current, double t_s,
                           double hysteresis_db, std::size_t first_cell,
                           std::size_t count,
                           const FleetFaultModel* faults = nullptr) const;

  /// serving_cell over `ranked`, rank_cells' order for this session and
  /// range, returning the cell with its signal at `t_s` (the serving cell's
  /// own when it stays). Prices `current` once and walks the order only
  /// while a cell can still clear the margin (DESIGN §12), so its answer is
  /// the range overload's, bit for bit.
  CellChoice serving_cell(int session_id, std::size_t current, double t_s,
                          double hysteresis_db,
                          std::span<const std::size_t> ranked,
                          const FleetFaultModel* faults = nullptr) const noexcept;

 private:
  CellNetworkConfig config_;
};

}  // namespace eacs::sim
