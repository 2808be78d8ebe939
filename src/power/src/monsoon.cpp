#include "eacs/power/monsoon.h"

#include <cmath>
#include <stdexcept>

namespace eacs::power {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

MonsoonSimulator::MonsoonSimulator(MonsoonConfig config, PowerModel model)
    : config_(config), model_(model), rng_(config.seed) {
  // +inf would make the sampling step 0 (measure_energy never returns) and
  // NaN would skip every sample; the comparison fails for NaN.
  if (!(std::isfinite(config_.sample_rate_hz) && config_.sample_rate_hz > 0.0)) {
    throw std::invalid_argument(
        "MonsoonSimulator: sample_rate_hz must be finite and > 0");
  }
}

double MonsoonSimulator::true_power(const ActivityInterval& interval) const noexcept {
  double watts = 0.0;
  if (interval.playing) {
    watts += model_.playback_power(interval.bitrate_mbps);
  } else {
    watts += model_.pause_power();
  }
  if (interval.downloading) {
    watts += model_.download_power(interval.signal_dbm, interval.throughput_mbps);
  }
  return watts;
}

double MonsoonSimulator::measure_energy(const std::vector<ActivityInterval>& timeline) {
  // Streaming integration: at 5 kHz a 600 s session is 3M samples; the
  // samples are never materialised, only their integral is needed.
  const double dt = 1.0 / config_.sample_rate_hz;
  // Random phases so different runs de-correlate the unmodeled components.
  const double ripple_phase = rng_.uniform(0.0, 2.0 * kPi);
  const double drift_phase = rng_.uniform(0.0, 2.0 * kPi);
  double joules = 0.0;
  for (const auto& interval : timeline) {
    if (interval.end_s <= interval.start_s) {
      throw std::invalid_argument("MonsoonSimulator: empty/negative interval");
    }
    const double base = true_power(interval);
    double prev_watts = -1.0;
    for (double t = interval.start_s; t < interval.end_s; t += dt) {
      double watts = base;
      watts += config_.ripple_w *
               std::sin(2.0 * kPi * config_.ripple_hz * t + ripple_phase);
      watts += config_.drift_w * std::sin(2.0 * kPi * t / 600.0 + drift_phase);
      watts += rng_.normal(0.0, config_.noise_sd_w);
      watts = std::max(0.0, watts);
      if (prev_watts >= 0.0) joules += 0.5 * (watts + prev_watts) * dt;
      prev_watts = watts;
    }
  }
  return joules;
}

}  // namespace eacs::power
