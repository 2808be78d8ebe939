#pragma once
// PID-control baseline (Qin et al., INFOCOM 2017 — the paper's ref [4]:
// "A Control Theoretic Approach to ABR Video Streaming: A Fresh Look at
// PID-Based Rate Adaptation").
//
// The controller regulates the buffer level around a setpoint: the error
// e = buffer - setpoint feeds a discrete PID whose output scales the
// bandwidth estimate into a target rate; the ladder level is the highest
// rate not above the target. Above-setpoint buffers push rates up,
// below-setpoint buffers pull them down — a smoother buffer-feedback loop
// than BBA's piecewise-linear map. The gains and limits are the named
// constants below (PidController::kSetpointS, ...), which no run varies.

#include "eacs/player/abr_policy.h"

namespace eacs::abr {

/// Buffer-feedback rate controller.
class PidController final : public player::AbrPolicy {
 public:
  // PID gains and limits.
  static constexpr double kSetpointS = 20.0;  ///< buffer target
  static constexpr double kKp = 0.05;   ///< proportional gain (per second of error)
  static constexpr double kKi = 0.002;  ///< integral gain
  static constexpr double kKd = 0.05;   ///< derivative gain
  static constexpr double kMinFactor = 0.25;  ///< clamp on the rate multiplier
  static constexpr double kMaxFactor = 1.50;
  /// Anti-windup bound on the error integral.
  static constexpr double kIntegralLimit = 60.0;

  std::string name() const override { return "PID"; }
  std::size_t choose_level(const player::AbrContext& context) override;
  void reset() override;

 private:
  double integral_ = 0.0;
  double prev_error_ = 0.0;
  bool primed_ = false;
};

}  // namespace eacs::abr
