#include "eacs/sensors/context_classifier.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "eacs/util/filters.h"
#include "eacs/util/stats.h"

namespace eacs::sensors {

const char* to_string(Context context) noexcept {
  switch (context) {
    case Context::kStatic: return "static";
    case Context::kWalking: return "walking";
    case Context::kVehicle: return "vehicle";
  }
  return "?";
}

double goertzel_power(std::span<const double> samples, double freq_hz,
                      double sample_rate_hz) {
  if (samples.empty()) return 0.0;
  if (freq_hz < 0.0 || freq_hz >= sample_rate_hz / 2.0) {
    throw std::invalid_argument("goertzel_power: frequency outside Nyquist band");
  }
  const double omega = 2.0 * 3.14159265358979323846 * freq_hz / sample_rate_hz;
  const double coeff = 2.0 * std::cos(omega);
  double s_prev = 0.0;
  double s_prev2 = 0.0;
  for (double x : samples) {
    const double s = x + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  const double power =
      s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
  return power / static_cast<double>(samples.size());
}

MotionFeatures compute_motion_features(std::span<const AccelSample> window) {
  MotionFeatures features;
  if (window.empty()) return features;

  // Gravity-removed magnitude stream.
  eacs::HighPassFilter highpass(kClassifierHighpassCutoffHz,
                               kClassifierSampleRateHz);
  std::vector<double> ac;
  ac.reserve(window.size());
  for (const auto& sample : window) {
    ac.push_back(highpass.update(sample.magnitude()));
  }
  features.rms = eacs::rms(ac);

  // Hann window before the spectral scan: with a rectangular window a tone
  // that falls between scan bins is orthogonal to every bin and vanishes
  // from the spectrum; the Hann mainlobe guarantees nearby bins see it.
  std::vector<double> windowed(ac.size());
  const double n_minus_1 = static_cast<double>(ac.size() > 1 ? ac.size() - 1 : 1);
  for (std::size_t i = 0; i < ac.size(); ++i) {
    const double hann =
        0.5 * (1.0 - std::cos(2.0 * 3.14159265358979323846 *
                              static_cast<double>(i) / n_minus_1));
    windowed[i] = ac[i] * hann;
  }
  ac.swap(windowed);

  // Spectral scan: dominant frequency and energy-weighted spread.
  double best_power = 0.0;
  double total_power = 0.0;
  double weighted_freq = 0.0;
  std::vector<std::pair<double, double>> spectrum;  // (freq, power)
  const double top = std::min(kClassifierScanMaxHz,
                              kClassifierSampleRateHz / 2.0 - kClassifierScanStepHz);
  // Bin k sits at k / (1 / step) Hz, computed from its index: a running sum
  // of steps drifts above the grid (bin 28 would read 2.8000000000000012 and
  // the 20 Hz ceiling bin would be skipped).
  const double bins_per_hz = 1.0 / kClassifierScanStepHz;
  const auto bins =
      static_cast<std::size_t>(std::round(top / kClassifierScanStepHz));
  for (std::size_t k = 1; k <= bins; ++k) {
    const double f = static_cast<double>(k) / bins_per_hz;
    const double power = goertzel_power(ac, f, kClassifierSampleRateHz);
    spectrum.emplace_back(f, power);
    total_power += power;
    weighted_freq += f * power;
    if (power > best_power) {
      best_power = power;
      features.dominant_hz = f;
    }
  }
  if (total_power > 0.0) {
    const double mean_freq = weighted_freq / total_power;
    double var = 0.0;
    for (const auto& [f, power] : spectrum) {
      var += power * (f - mean_freq) * (f - mean_freq);
    }
    features.spectral_spread = std::sqrt(var / total_power);
  }
  return features;
}

Context classify_window(std::span<const AccelSample> window) {
  const MotionFeatures features = compute_motion_features(window);
  if (features.rms < kClassifierStaticRms) return Context::kStatic;
  const bool cadence_band = features.dominant_hz >= kClassifierWalkMinHz &&
                            features.dominant_hz <= kClassifierWalkMaxHz;
  if (cadence_band && features.spectral_spread <= kClassifierWalkMaxSpreadHz) {
    return Context::kWalking;
  }
  return Context::kVehicle;
}

}  // namespace eacs::sensors
