#pragma once
// Context classification from accelerometer features (extension).
//
// The paper's system distinguishes contexts by the continuous vibration
// level; many deployments additionally want a discrete label ("is the user
// on a vehicle?") e.g. to gate the context-aware policy or annotate
// analytics. This classifier computes three windowed features on the
// gravity-removed acceleration magnitude —
//   * RMS level (overall vibration energy),
//   * dominant frequency (Goertzel scan: walking cadence ~1.5-2.5 Hz vs.
//     road/engine harmonics spread over 1-20 Hz),
//   * spectral spread (walking is narrowband, vehicles broadband)
// — and applies calibrated thresholds. The rate, filter, thresholds and scan
// grid are the named constants below, which no run varies.

#include <cstddef>
#include <span>

#include "eacs/sensors/accel.h"

namespace eacs::sensors {

/// Discrete context label.
enum class Context { kStatic, kWalking, kVehicle };

const char* to_string(Context context) noexcept;

/// Windowed features of the gravity-removed acceleration magnitude.
struct MotionFeatures {
  double rms = 0.0;            ///< m/s^2
  double dominant_hz = 0.0;    ///< frequency of max spectral energy
  double spectral_spread = 0.0;  ///< energy-weighted std around dominant_hz
};

// Classifier settings (thresholds calibrated against the synthetic
// generators; adjust for real hardware).
/// Sample rate the features assume. It has to match the accelerometer
/// stream's rate (50 Hz, as the trace generators and sessions emit).
inline constexpr double kClassifierSampleRateHz = 50.0;
inline constexpr double kClassifierHighpassCutoffHz = 0.5;
inline constexpr double kClassifierStaticRms = 0.25;  ///< below: static
inline constexpr double kClassifierWalkMinHz = 1.2;   ///< walking cadence band
inline constexpr double kClassifierWalkMaxHz = 2.8;
/// Walking is narrowband.
inline constexpr double kClassifierWalkMaxSpreadHz = 1.8;
inline constexpr double kClassifierScanMaxHz = 20.0;  ///< Goertzel scan ceiling
inline constexpr double kClassifierScanStepHz = 0.1;

/// Computes the windowed features over a trace slice.
MotionFeatures compute_motion_features(std::span<const AccelSample> window);

/// Classifies one window of samples.
Context classify_window(std::span<const AccelSample> window);

/// Goertzel single-bin spectral power of a real signal at `freq_hz`.
double goertzel_power(std::span<const double> samples, double freq_hz,
                      double sample_rate_hz);

}  // namespace eacs::sensors
