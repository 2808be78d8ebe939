#include "eacs/trace/accel_gen.h"

#include <cmath>
#include <stdexcept>

namespace eacs::trace {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

AccelModel AccelModel::quiet_room() {
  AccelModel m;
  m.sensor_noise = 0.03;
  m.sway_amplitude = 0.02;
  m.bump_rate_per_s = 0.0;
  m.bump_amplitude = 0.0;
  m.harmonic_energy = 0.0;
  return m;
}

AccelModel AccelModel::moving_vehicle() {
  AccelModel m;
  m.sensor_noise = 0.05;
  m.sway_amplitude = 0.2;
  m.bump_rate_per_s = 0.25;
  m.bump_amplitude = 3.0;
  m.harmonic_energy = 1.0;
  return m;
}

AccelModel AccelModel::walking() {
  AccelModel m;
  m.sensor_noise = 0.05;
  m.sway_amplitude = 0.15;
  m.walk_cadence_hz = 1.9;
  m.walk_amplitude = 1.8;
  return m;
}

AccelGenerator::AccelGenerator(AccelModel model, std::uint64_t seed)
    : model_(model), rng_(seed) {
  if (model_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("AccelGenerator: sample rate must be > 0");
  }
}

std::vector<AccelGenerator::SampleParts> AccelGenerator::synthesize(
    double duration_s, std::uint64_t stream_seed, sensors::AccelTrace& out) const {
  if (duration_s <= 0.0) throw std::invalid_argument("AccelGenerator: bad duration");
  eacs::Rng rng(stream_seed);
  const double dt = 1.0 / model_.sample_rate_hz;
  const auto count = static_cast<std::size_t>(duration_s * model_.sample_rate_hz) + 1;

  // Road/engine harmonic bank: frequencies fixed per stream, amplitudes
  // weighted toward the low end (suspension resonance ~1-3 Hz dominates).
  struct Harmonic {
    double freq_hz, amplitude, phase;
  };
  std::vector<Harmonic> harmonics;
  if (model_.harmonic_energy > 0.0) {
    const double base_freqs[] = {1.3, 2.4, 3.6, 7.5, 12.0, 17.0};
    const double weights[] = {1.0, 0.8, 0.55, 0.3, 0.2, 0.15};
    for (std::size_t i = 0; i < 6; ++i) {
      harmonics.push_back({base_freqs[i] * (0.9 + 0.2 * rng.uniform()),
                           model_.harmonic_energy * weights[i],
                           rng.uniform(0.0, 2.0 * kPi)});
    }
  }
  // Pure in their arguments: computed once, they give a per-sample call's bits.
  const double bump_prob = 1.0 - std::exp(-model_.bump_rate_per_s * dt);
  const double bump_decay = std::exp(-dt / 0.25);  // ~0.25 s decay constant

  // The kept trace is allocated before the scratch parts, so freeing the
  // parts leaves no hole beneath the trace.
  out.reserve(count);
  std::vector<SampleParts> parts;
  parts.reserve(count);
  double bump_level = 0.0;  // decaying bump envelope
  double bump_sign = 1.0;
  double sway_phase = rng.uniform(0.0, 2.0 * kPi);
  // Slow amplitude modulation of the harmonics (road roughness changes).
  double modulation = 1.0;

  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) * dt;
    // Vibration waveform along the phone's z axis (screen normal).
    double vib = 0.0;
    for (const auto& h : harmonics) {
      vib += h.amplitude * std::sin(2.0 * kPi * h.freq_hz * t + h.phase);
    }
    // Road roughness modulation: mean-reverting around 1.
    modulation += 0.02 * (1.0 - modulation) + 0.02 * rng.normal();
    if (modulation < 0.2) modulation = 0.2;
    vib *= modulation;

    // Walking: narrowband vertical bobbing at the step cadence plus its
    // first harmonic (heel-strike sharpening).
    if (model_.walk_cadence_hz > 0.0 && model_.walk_amplitude > 0.0) {
      vib += model_.walk_amplitude *
             (std::sin(2.0 * kPi * model_.walk_cadence_hz * t) +
              0.35 * std::sin(2.0 * kPi * 2.0 * model_.walk_cadence_hz * t + 0.7));
    }

    // Bumps: decaying oscillatory transient.
    if (model_.bump_rate_per_s > 0.0 && rng.bernoulli(bump_prob)) {
      bump_level = model_.bump_amplitude * (0.5 + rng.uniform());
      bump_sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
    }
    if (bump_level > 1e-3) {
      vib += bump_sign * bump_level * std::sin(2.0 * kPi * 9.0 * t);
      bump_level *= bump_decay;
    }

    // Handheld sway: slow, survives in x/y.
    sway_phase += 2.0 * kPi * 0.3 * dt;
    const double sway = model_.sway_amplitude * std::sin(sway_phase);

    SampleParts part;
    part.t_s = t;
    part.vib = vib;
    part.x_base = sway + rng.normal(0.0, model_.sensor_noise);
    part.y_base = 0.5 * sway + rng.normal(0.0, model_.sensor_noise);
    part.z_noise = rng.normal(0.0, model_.sensor_noise);
    parts.push_back(part);
  }
  return parts;
}

void AccelGenerator::recombine(const std::vector<SampleParts>& parts,
                               double vibration_scale, sensors::AccelTrace& out) {
  out.resize(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const SampleParts& part = parts[i];
    const double vib = part.vib * vibration_scale;
    sensors::AccelSample& sample = out[i];
    sample.t_s = part.t_s;
    sample.x = part.x_base + 0.3 * vib;
    sample.y = part.y_base + 0.2 * vib;
    sample.z = sensors::kGravity + vib + part.z_noise;
  }
}

sensors::AccelTrace AccelGenerator::generate(double duration_s) {
  sensors::AccelTrace trace;
  recombine(synthesize(duration_s, rng_.next_u64(), trace), 1.0, trace);
  return trace;
}

sensors::AccelTrace AccelGenerator::generate_calibrated(double duration_s,
                                                        double target_level,
                                                        sensors::VibrationConfig config,
                                                        double tolerance) {
  // The stream seed is fixed across calibration iterations so that changing
  // the scale rescales the *same* waveform rather than sampling a new one.
  const std::uint64_t stream_seed = rng_.next_u64();
  sensors::AccelTrace trace;

  if (target_level <= 0.0) {
    recombine(synthesize(duration_s, stream_seed, trace), 0.0, trace);
    return trace;
  }

  // A model with no vibration waveform (quiet room: noise and sway only)
  // cannot reach a positive target by scaling; bootstrap a unit harmonic
  // bank first.
  if (model_.harmonic_energy <= 0.0 && model_.bump_rate_per_s <= 0.0) {
    AccelModel boosted = model_;
    boosted.harmonic_energy = 1.0;
    AccelGenerator helper(boosted, stream_seed ^ 0xABCDULL);
    return helper.generate_calibrated(duration_s, target_level, config, tolerance);
  }

  // The measured level is monotone (affine up to the noise floor) in the
  // scale, so a secant iteration converges in a couple of steps. Each step
  // recombines the one synthesis at the new scale into the same buffer.
  const std::vector<SampleParts> parts = synthesize(duration_s, stream_seed, trace);
  double scale = 1.0;
  recombine(parts, scale, trace);
  double measured = sensors::mean_vibration_level(trace, config);
  if (measured <= 1e-9) return trace;  // defensive: nothing to scale

  for (int iter = 0; iter < 8; ++iter) {
    const double relative_error = std::fabs(measured - target_level) / target_level;
    if (relative_error <= tolerance) break;
    scale *= target_level / measured;
    recombine(parts, scale, trace);
    measured = sensors::mean_vibration_level(trace, config);
  }
  return trace;
}

}  // namespace eacs::trace
