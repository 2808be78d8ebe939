#pragma once
// Synthetic 3-axis accelerometer trace generator.
//
// Substitutes for the smartphone accelerometer recordings. Two regimes:
//  * quiet room — gravity plus sensor noise and slow handheld sway; the
//    estimator reads a vibration level near zero;
//  * moving vehicle — gravity plus road/engine harmonics (1-20 Hz),
//    low-frequency body roll, and Poisson-arriving bump transients.
//
// The generator is *calibrated*: callers specify the target mean vibration
// level (as measured by eacs::sensors::VibrationEstimator) and the generator
// scales its vibration waveform so the measured level matches the target,
// reproducing Table V's per-session averages.

#include <cstdint>
#include <vector>

#include "eacs/sensors/accel.h"
#include "eacs/sensors/vibration.h"
#include "eacs/util/rng.h"

namespace eacs::trace {

/// Parameters of the accelerometer synthesis.
struct AccelModel {
  double sample_rate_hz = 50.0;
  double sensor_noise = 0.03;        ///< white noise sigma per axis (m/s^2)
  double sway_amplitude = 0.02;      ///< slow handheld sway (m/s^2)
  double bump_rate_per_s = 0.0;      ///< Poisson rate of road bumps
  double bump_amplitude = 3.0;       ///< peak bump acceleration (m/s^2)
  double harmonic_energy = 0.0;      ///< road/engine harmonic amplitude scale
  double walk_cadence_hz = 0.0;      ///< step frequency; 0 disables walking
  double walk_amplitude = 0.0;       ///< vertical bobbing amplitude (m/s^2)

  static AccelModel quiet_room();
  static AccelModel moving_vehicle();
  /// Handheld walking: narrowband bobbing at the step cadence (~2 Hz) plus
  /// its first harmonic — distinguishable from broadband vehicle vibration
  /// by the context classifier.
  static AccelModel walking();
};

/// Generates accelerometer traces with a calibrated vibration level.
class AccelGenerator {
 public:
  AccelGenerator(AccelModel model, std::uint64_t seed);

  /// Generates `duration_s` seconds of samples (uncalibrated waveform).
  sensors::AccelTrace generate(double duration_s);

  /// Generates a trace whose *mean* vibration level (per
  /// sensors::mean_vibration_level with `config`) is within `tolerance`
  /// (relative) of `target_level`. Uses secant iteration on the waveform
  /// scale: one synthesis, then a rescale of the stored waveform per secant
  /// step. A target of 0 returns a quiet trace.
  sensors::AccelTrace generate_calibrated(double duration_s, double target_level,
                                          sensors::VibrationConfig config = {},
                                          double tolerance = 0.03);

 private:
  /// One sample with the waveform's scale factored out: every RNG draw and
  /// `sin` of the stream lands here, and the scale enters each axis once.
  struct SampleParts {
    double t_s;
    double vib;      ///< the unscaled vibration waveform
    double x_base;   ///< sway + x noise
    double y_base;   ///< 0.5 * sway + y noise
    double z_noise;
  };

  /// Draws the stream's scale-independent parts (the one generation loop).
  /// Reserves `out`, the trace the parts recombine into, before the parts
  /// themselves, so the short-lived parts are the later allocation.
  std::vector<SampleParts> synthesize(double duration_s, std::uint64_t stream_seed,
                                      sensors::AccelTrace& out) const;
  /// Writes the trace at `vibration_scale` into `out`, with the operand
  /// order of a direct generation at that scale, so every sample keeps its
  /// bits (DESIGN §2).
  static void recombine(const std::vector<SampleParts>& parts,
                        double vibration_scale, sensors::AccelTrace& out);

  AccelModel model_;
  eacs::Rng rng_;
};

}  // namespace eacs::trace
