#include "eacs/util/filters.h"

#include <cmath>
#include <stdexcept>

namespace eacs {

EmaFilter::EmaFilter(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("EmaFilter: alpha must be in (0, 1]");
  }
}

double EmaFilter::update(double x) noexcept {
  if (!primed_) {
    value_ = x;
    primed_ = true;
  } else {
    value_ += alpha_ * (x - value_);
  }
  return value_;
}

void EmaFilter::reset() noexcept {
  value_ = 0.0;
  primed_ = false;
}

HighPassFilter::HighPassFilter(double cutoff_hz, double sample_rate_hz) {
  if (!(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0 &&
        std::isfinite(sample_rate_hz))) {
    throw std::invalid_argument("HighPassFilter: invalid cutoff/sample rate");
  }
  constexpr double kPi = 3.14159265358979323846;
  const double rc = 1.0 / (2.0 * kPi * cutoff_hz);
  const double dt = 1.0 / sample_rate_hz;
  r_ = rc / (rc + dt);
}

void HighPassFilter::reset() noexcept {
  prev_input_ = 0.0;
  prev_output_ = 0.0;
  primed_ = false;
}

MovingRms::MovingRms(std::size_t window) : window_(window), storage_(window, 0.0) {
  if (window == 0) throw std::invalid_argument("MovingRms: window must be > 0");
}

void MovingRms::reset() noexcept {
  sums_ = {};
  for (auto& s : storage_) s = 0.0;
}

}  // namespace eacs
