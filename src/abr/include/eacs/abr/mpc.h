#pragma once
// MPC baseline (Yin, Jindal, Sekar, Sinopoli — SIGCOMM 2015, the paper's
// reference [17]): model-predictive bitrate control.
//
// Not part of the paper's comparison; included as an extension baseline.
// Every segment, the controller enumerates all bitrate sequences over a
// short lookahead horizon, simulates the buffer under the (harmonic-mean)
// bandwidth prediction, scores each sequence with the standard DASH QoE
// objective
//     sum_k  q(r_k) - mu * rebuffer_k - lambda * |q(r_k) - q(r_{k-1})|
// (q = log-utility of the bitrate) and plays the first action of the best
// sequence (receding horizon). The horizon is the one setting a run varies;
// the objective's weights are the named constants Mpc::k*.

#include "eacs/player/abr_policy.h"

namespace eacs::abr {

/// Exhaustive receding-horizon controller.
class Mpc final : public player::AbrPolicy {
 public:
  // RobustMPC-style objective weights.
  /// MOS-equivalents per stalled second.
  static constexpr double kRebufferPenalty = 4.3;
  static constexpr double kSwitchPenalty = 1.0;  ///< per unit |utility delta|
  /// Robustness: use the discounted estimate.
  static constexpr double kBandwidthDiscount = 0.85;

  /// `horizon` lookahead segments (14^horizon sequences). Throws
  /// std::invalid_argument for a horizon of 0.
  explicit Mpc(std::size_t horizon = 3);

  std::string name() const override { return "MPC"; }
  std::size_t choose_level(const player::AbrContext& context) override;

 private:
  double sequence_score(const player::AbrContext& context,
                        const std::vector<std::size_t>& levels,
                        double bandwidth_mbps) const;

  std::size_t horizon_;
};

}  // namespace eacs::abr
