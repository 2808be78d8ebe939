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
// with per-state power draws and a promotion cost on IDLE->CONNECTED.
// `RrcSimulator::analyze` consumes a session's transfer bursts and returns
// the full energy/time breakdown; `sim/metrics.h` exposes an RRC-aware
// session energy built on it.

#include <cstddef>
#include <vector>

namespace eacs::power {

/// RRC machine parameters (defaults follow published LTE measurements).
struct RrcConfig {
  // Timers (seconds).
  double inactivity_s = 0.2;   ///< CONNECTED continuous-rx -> short DRX
  double short_drx_s = 1.0;    ///< short DRX -> long DRX
  double long_drx_s = 10.0;    ///< long DRX -> IDLE (the "tail" end)
  // Per-state power (watts), radio subsystem only.
  double connected_active_w = 1.1;  ///< receiving data (base; per-byte energy
                                    ///< from PowerModel::e(s) rides on top in
                                    ///< combined accounting)
  double connected_tail_w = 1.0;    ///< CONNECTED, no data
  double short_drx_w = 0.65;
  double long_drx_w = 0.35;
  double idle_w = 0.01;
  // Promotion (IDLE -> CONNECTED) cost.
  double promotion_energy_j = 0.45;
  double promotion_latency_s = 0.26;
};

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

/// Replays transfer bursts through the RRC machine.
class RrcSimulator {
 public:
  explicit RrcSimulator(RrcConfig config = {});

  const RrcConfig& config() const noexcept { return config_; }

  /// Analyzes bursts (must be time-ordered and non-overlapping; overlapping
  /// bursts are merged) over [0, session_end_s]. Throws
  /// std::invalid_argument on negative/inverted bursts or a session end
  /// before the last burst.
  RrcBreakdown analyze(std::vector<TransferBurst> bursts, double session_end_s) const;

 private:
  RrcConfig config_;
};

}  // namespace eacs::power
