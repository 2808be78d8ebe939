#include "eacs/sim/cell_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "eacs/sim/fleet_faults.h"
#include "eacs/sim/seed_mix.h"

namespace eacs::sim {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// A signal's per-(session, cell) base level, drawn from
/// h = seed_mix(seed, cell, session).
double signal_base(const CellNetworkConfig& c, std::uint64_t h) noexcept {
  return c.signal_worst_dbm +
         (c.signal_best_dbm - c.signal_worst_dbm) * seed_unit(h);
}

/// The cell-choice rule: the strongest cell of `ranked` (rank_cells' order)
/// other than `exclude` that is live and whose signal `admit` accepts,
/// lowest index winning ties — the exhaustive scan's answer (DESIGN §12).
/// base + |swing| is never below a cell's signal in IEEE arithmetic (a
/// collapse offset is <= 0) and never rises along the order, and `admit`
/// is monotone (admit(v) and w >= v imply admit(w)), so once a live cell's
/// ceiling is below the best or not admitted, no later cell can win or tie.
/// A ceiling equal to the best is still priced: it can tie at a lower
/// index. The walk is instantiated once per overlay kind, so the healthy
/// loop has no fault-layer call.
template <typename Admit>
CellChoice strongest_cell(const CellNetwork& network, int session,
                          double t_s, std::span<const std::size_t> ranked,
                          std::size_t exclude, const FleetFaultModel* faults,
                          Admit admit) {
  const CellNetworkConfig& config = network.config();
  const double reach = std::fabs(config.signal_swing_db);
  const auto walk = [&](auto dead, auto dbm) {
    CellChoice best{network.num_cells(),
                    -std::numeric_limits<double>::infinity()};
    for (const std::size_t c : ranked) {
      if (c == exclude || dead(c)) continue;
      const double ceiling =
          signal_base(config, seed_mix(config.seed, c, session)) + reach;
      if (ceiling < best.dbm || !admit(ceiling)) break;
      const double v = dbm(c);
      if ((v > best.dbm || (v == best.dbm && c < best.cell)) && admit(v)) {
        best = {c, v};
      }
    }
    return best;
  };
  if (faults == nullptr) {
    return walk(
        [](std::size_t) { return false; },
        [&](std::size_t c) { return network.signal_dbm(session, c, t_s); });
  }
  return walk([&](std::size_t c) { return faults->cell_dead(c, t_s); },
              [&](std::size_t c) {
                return network.signal_dbm(session, c, t_s, faults);
              });
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
  const double base = signal_base(config_, h);
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

void CellNetwork::rank_cells(int session_id, std::size_t first_cell,
                             std::size_t count,
                             std::span<std::size_t> out) const {
  if (out.size() != count) {
    throw std::invalid_argument(
        "CellNetwork::rank_cells: output does not hold count cells");
  }
  std::vector<double> base(count);
  for (std::size_t i = 0; i < count; ++i) {
    base[i] = signal_base(config_,
                          seed_mix(config_.seed, first_cell + i, session_id));
    out[i] = first_cell + i;
  }
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    const double x = base[a - first_cell];
    const double y = base[b - first_cell];
    return x > y || (x == y && a < b);
  });
}

CellChoice CellNetwork::best_cell_in(
    int session_id, double t_s, std::span<const std::size_t> ranked,
    const FleetFaultModel* faults) const noexcept {
  const std::size_t no_cell = std::numeric_limits<std::size_t>::max();
  return strongest_cell(*this, session_id, t_s, ranked, no_cell, faults,
                        [](double) { return true; });
}

std::size_t CellNetwork::best_cell_in(int session_id, double t_s,
                                      std::size_t first_cell,
                                      std::size_t count,
                                      const FleetFaultModel* faults) const {
  std::vector<std::size_t> ranked(count);
  rank_cells(session_id, first_cell, count, ranked);
  return best_cell_in(session_id, t_s, ranked, faults).cell;
}

CellChoice CellNetwork::serving_cell(
    int session_id, std::size_t current, double t_s, double hysteresis_db,
    std::span<const std::size_t> ranked,
    const FleetFaultModel* faults) const noexcept {
  // A dead serving cell escapes with no margin: any live cell beats it.
  if (faults != nullptr && faults->cell_dead(current, t_s)) {
    return best_cell_in(session_id, t_s, ranked, faults);
  }
  // Price the serving cell once, then admit only cells that clear the
  // margin against it (fl(v - cur) is monotone in v).
  const double cur = signal_dbm(session_id, current, t_s, faults);
  const CellChoice best = strongest_cell(
      *this, session_id, t_s, ranked, current, faults,
      [&](double v) { return v - cur > hysteresis_db; });
  // The serving cell stays when no cell clears the margin, or when it would
  // have won the exhaustive scan itself: it beats the winner or ties it at
  // a lower index, which only a negative margin allows.
  if (best.cell == num_cells() || cur > best.dbm ||
      (cur == best.dbm && current < best.cell)) {
    return {current, cur};
  }
  return best;
}

std::size_t CellNetwork::serving_cell(int session_id, std::size_t current,
                                      double t_s, double hysteresis_db,
                                      std::size_t first_cell,
                                      std::size_t count,
                                      const FleetFaultModel* faults) const {
  std::vector<std::size_t> ranked(count);
  rank_cells(session_id, first_cell, count, ranked);
  return serving_cell(session_id, current, t_s, hysteresis_db, ranked, faults)
      .cell;
}

}  // namespace eacs::sim
