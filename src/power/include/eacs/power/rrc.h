#pragma once
// LTE RRC state-machine radio-energy model (extension).
//
// The paper's per-byte model (Fig. 1(a)) folds the radio's behaviour into
// e(signal) J/MB. The tail-energy literature it cites (Huang et al.
// MobiSys'12; Yang & Cao TWC'18) shows a second-order effect that per-byte
// accounting misses: after each transfer the radio lingers in
// RRC_CONNECTED and DRX states for seconds ("tail"), burning energy
// without moving data. Segment pacing therefore matters — many small
// spaced downloads pay many tails, batched downloads amortise them.
//
// This module implements the standard 4-state machine:
//
//   IDLE --(data)--> CONNECTED --T_inactivity--> SHORT_DRX
//        <---------- LONG_DRX <--T_short_drx ----
//                       |  T_long_drx
//                       v
//                     IDLE
//
// with per-state power draws and a promotion cost on IDLE->CONNECTED. The
// timers, powers and promotion cost are published LTE measurements, held as
// the named constants below. `rrc_breakdown` consumes a session's transfer
// bursts and returns the full energy/time breakdown; `sim/metrics.h` exposes
// an RRC-aware session energy built on it.

#include <cstddef>
#include <vector>

namespace eacs::power {

// RRC machine parameters (published LTE measurements).
// Timers (seconds).
/// CONNECTED continuous-rx -> short DRX.
inline constexpr double kRrcInactivityS = 0.2;
inline constexpr double kRrcShortDrxS = 1.0;  ///< short DRX -> long DRX
/// Long DRX -> IDLE (the "tail" end).
inline constexpr double kRrcLongDrxS = 10.0;
// Per-state power (watts), radio subsystem only.
/// Receiving data (base; per-byte energy from PowerModel::e(s) rides on top
/// in combined accounting).
inline constexpr double kRrcConnectedActiveW = 1.1;
inline constexpr double kRrcConnectedTailW = 1.0;  ///< CONNECTED, no data
inline constexpr double kRrcShortDrxW = 0.65;
inline constexpr double kRrcLongDrxW = 0.35;
inline constexpr double kRrcIdleW = 0.01;
// Promotion (IDLE -> CONNECTED) cost.
inline constexpr double kRrcPromotionEnergyJ = 0.45;

/// One radio transfer burst.
struct TransferBurst {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Aggregate outcome of an RRC analysis.
struct RrcBreakdown {
  double active_time_s = 0.0;     ///< receiving data
  double tail_time_s = 0.0;       ///< CONNECTED-tail + short DRX + long DRX
  double idle_time_s = 0.0;
  double active_energy_j = 0.0;   ///< state power during transfers
  double tail_energy_j = 0.0;     ///< energy burnt in tails
  double idle_energy_j = 0.0;
  double promotion_energy_j = 0.0;
  std::size_t promotions = 0;     ///< IDLE -> CONNECTED transitions

  double total_energy_j() const noexcept {
    return active_energy_j + tail_energy_j + idle_energy_j + promotion_energy_j;
  }
};

/// Replays transfer bursts through the RRC machine over [0, session_end_s].
/// Bursts may come in any order; overlapping or touching bursts are merged.
/// Throws std::invalid_argument, naming the burst index or `session_end_s`,
/// unless every burst has 0 <= start_s <= end_s < inf and the session end is
/// finite and no earlier than the last burst's end (NaN fails both).
RrcBreakdown rrc_breakdown(std::vector<TransferBurst> bursts, double session_end_s);

}  // namespace eacs::power
