#include "eacs/sim/cell_network.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "eacs/sim/fleet_faults.h"
#include "eacs/sim/seed_mix.h"

namespace eacs::sim {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// The cell-choice rule: the strongest cell in [first, first + count) by
/// `dbm` that is not `dead`, lowest index winning ties; `none` when every
/// cell is dead. best_cell_in instantiates it once per overlay kind, so the
/// healthy scan has no fault-layer call in its loop.
template <typename Dead, typename Dbm>
std::size_t strongest_cell(std::size_t first, std::size_t count,
                           std::size_t none, Dead dead, Dbm dbm) {
  std::size_t best = none;
  double best_dbm = -std::numeric_limits<double>::infinity();
  for (std::size_t c = first; c < first + count; ++c) {
    if (dead(c)) continue;
    const double v = dbm(c);
    if (v > best_dbm) {  // strict: lowest index wins ties
      best_dbm = v;
      best = c;
    }
  }
  return best;
}

}  // namespace

CellNetwork::CellNetwork(CellNetworkConfig config) : config_(config) {
  const CellNetworkConfig& c = config_;
  if (c.num_cells == 0) {
    throw std::invalid_argument("CellNetwork: num_cells must be > 0");
  }
  for (const double v : {c.mean_capacity_mbps, c.capacity_spread,
                         c.capacity_sway, c.capacity_period_s,
                         c.signal_best_dbm, c.signal_worst_dbm,
                         c.signal_swing_db, c.signal_period_s}) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("CellNetwork: config fields must be finite");
    }
  }
  if (!(c.mean_capacity_mbps > 0.0 && c.capacity_period_s > 0.0 &&
        c.signal_period_s > 0.0)) {
    throw std::invalid_argument(
        "CellNetwork: mean capacity and periods must be > 0");
  }
  if (!(c.capacity_spread >= 0.0 && c.capacity_spread <= 1.0)) {
    throw std::invalid_argument(
        "CellNetwork: capacity_spread must be in [0, 1]");
  }
}

double CellNetwork::capacity_mbps(
    std::size_t cell, double t_s,
    const FleetFaultModel* faults) const noexcept {
  // Session id -1 keys the cell's own (session-independent) draws.
  const std::uint64_t h = seed_mix(config_.seed, cell, -1);
  const double scale =
      1.0 + config_.capacity_spread * (2.0 * seed_unit(h) - 1.0);
  const double phase = kTwoPi * seed_unit(seed_mix(config_.seed, cell, -2));
  const double sway =
      config_.capacity_sway *
      std::sin(kTwoPi * t_s / config_.capacity_period_s + phase);
  const double raw = config_.mean_capacity_mbps * scale * (1.0 + sway);
  const double capacity = raw > 0.0 ? raw : 0.0;
  return faults == nullptr ? capacity
                           : capacity * faults->capacity_factor(cell, t_s);
}

double CellNetwork::signal_dbm(int session_id, std::size_t cell, double t_s,
                               const FleetFaultModel* faults) const noexcept {
  const std::uint64_t h = seed_mix(config_.seed, cell, session_id);
  const double base =
      config_.signal_worst_dbm +
      (config_.signal_best_dbm - config_.signal_worst_dbm) * seed_unit(h);
  // Phase and a period jittered in [0.75, 1.25] of the mean. The session
  // term cancels in h2, so the phase is per cell, and the period draw
  // repeats the base draw of (cell + 1, session).
  const std::uint64_t h2 = seed_mix(h, cell + 1, session_id);
  const double phase = kTwoPi * seed_unit(h2);
  const double period =
      config_.signal_period_s * (0.75 + 0.5 * seed_unit(seed_mix(h2, cell, session_id)));
  const double dbm =
      base + config_.signal_swing_db * std::sin(kTwoPi * t_s / period + phase);
  return faults == nullptr ? dbm : dbm + faults->signal_offset_db(cell, t_s);
}

std::size_t CellNetwork::best_cell(int session_id, double t_s) const noexcept {
  return best_cell_in(session_id, t_s, 0, config_.num_cells);
}

std::size_t CellNetwork::best_cell_in(
    int session_id, double t_s, std::size_t first_cell, std::size_t count,
    const FleetFaultModel* faults) const noexcept {
  if (faults == nullptr) {
    return strongest_cell(
        first_cell, count, num_cells(), [](std::size_t) { return false; },
        [&](std::size_t c) { return signal_dbm(session_id, c, t_s); });
  }
  return strongest_cell(
      first_cell, count, num_cells(),
      [&](std::size_t c) { return faults->cell_dead(c, t_s); },
      [&](std::size_t c) { return signal_dbm(session_id, c, t_s, faults); });
}

std::size_t CellNetwork::serving_cell(
    int session_id, std::size_t current, double t_s, double hysteresis_db,
    std::size_t first_cell, std::size_t count,
    const FleetFaultModel* faults) const noexcept {
  const std::size_t best =
      best_cell_in(session_id, t_s, first_cell, count, faults);
  if (best == current) return current;
  // A dead serving cell escapes with no margin: any live cell beats it.
  if (faults != nullptr && faults->cell_dead(current, t_s)) return best;
  const double gain = signal_dbm(session_id, best, t_s, faults) -
                      signal_dbm(session_id, current, t_s, faults);
  return gain > hysteresis_db ? best : current;
}

}  // namespace eacs::sim
