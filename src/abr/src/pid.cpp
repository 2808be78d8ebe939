#include "eacs/abr/pid.h"

#include <algorithm>

namespace eacs::abr {

void PidController::reset() {
  integral_ = 0.0;
  prev_error_ = 0.0;
  primed_ = false;
}

std::size_t PidController::choose_level(const player::AbrContext& context) {
  const auto& ladder = context.manifest->ladder();
  const double estimate = context.bandwidth->estimate();
  if (estimate <= 0.0) return ladder.lowest_level();

  const double error = context.buffer_s - kSetpointS;
  integral_ = std::clamp(integral_ + error, -kIntegralLimit, kIntegralLimit);
  const double derivative = primed_ ? error - prev_error_ : 0.0;
  prev_error_ = error;
  primed_ = true;

  const double factor =
      std::clamp(1.0 + kKp * error + kKi * integral_ + kKd * derivative,
                 kMinFactor, kMaxFactor);
  const double target = factor * estimate;
  return ladder.highest_level_not_above(target).value_or(ladder.lowest_level());
}

}  // namespace eacs::abr
