#include "eacs/sensors/vibration.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "eacs/util/stats.h"

namespace eacs::sensors {

namespace {

/// `config`, once require_valid_vibration accepts it: the estimator checks
/// before its filters size themselves from the fields.
const VibrationConfig& checked(const VibrationConfig& config) {
  require_valid_vibration("VibrationEstimator", config);
  return config;
}

}  // namespace

void require_valid_vibration(const std::string& who, const VibrationConfig& config) {
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto non_negative = [](double v) { return std::isfinite(v) && v >= 0.0; };
  const double samples = config.window_s * config.sample_rate_hz;
  const std::pair<bool, const char*> rules[] = {
      {positive(config.window_s), "window_s must be finite and > 0"},
      {positive(config.sample_rate_hz), "sample_rate_hz must be finite and > 0"},
      {samples < 0x1p64,
       "window_s * sample_rate_hz must be a representable sample count (< 2^64)"},
      {positive(config.highpass_cutoff_hz) &&
           config.highpass_cutoff_hz < config.sample_rate_hz / 2.0,
       "highpass_cutoff_hz must be finite and in (0, sample_rate_hz / 2)"},
      {non_negative(config.quiet_after_s), "quiet_after_s must be finite and >= 0"},
      {non_negative(config.prior_vibration),
       "prior_vibration must be finite and >= 0"},
      {positive(config.prior_tau_s), "prior_tau_s must be finite and > 0"},
  };
  for (const auto& [ok, rule] : rules) {
    if (!ok) throw std::invalid_argument(who + ": vibration." + rule);
  }
}

VibrationEstimator::VibrationEstimator(VibrationConfig config)
    : config_(checked(config)),
      highpass_(config.highpass_cutoff_hz, config.sample_rate_hz),
      rms_(config.window_samples()) {}

double VibrationEstimator::update(const AccelSample& sample) {
  return consume({&sample, 1});
}

double VibrationEstimator::consume(std::span<const AccelSample> samples,
                                   eacs::MovingRms::Window* windows) {
  // Per valid sample, update()'s steps in its order, on local copies of the
  // filter states and the time rule's fields; written back after the run.
  eacs::HighPassFilter highpass = highpass_;
  eacs::MovingRms::Batch rms(rms_);
  double last_valid_t_s = last_valid_t_s_;
  bool have_valid = have_valid_;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const AccelSample& sample = samples[i];
    if (std::isfinite(sample.x) && std::isfinite(sample.y) &&
        std::isfinite(sample.z)) {
      if (std::isfinite(sample.t_s)) {
        last_valid_t_s =
            have_valid ? std::max(last_valid_t_s, sample.t_s) : sample.t_s;
        have_valid = true;
      }
      rms.push(highpass.update(sample.magnitude()));
    } else {
      ++rejected;
    }
    if (windows != nullptr) windows[i] = rms.window();
  }
  highpass_ = highpass;
  rms.commit();
  samples_seen_ += samples.size();
  rejected_samples_ += rejected;
  last_valid_t_s_ = last_valid_t_s;
  have_valid_ = have_valid;
  return level();
}

double VibrationEstimator::level() const noexcept { return rms_.value(); }

double VibrationEstimator::level_at(double now_s) const noexcept {
  if (!have_valid_) return config_.prior_vibration;
  const double age = std::max(0.0, now_s - last_valid_t_s_);
  if (age <= config_.quiet_after_s) return level();
  const double w = std::exp(-(age - config_.quiet_after_s) / config_.prior_tau_s);
  return w * level() + (1.0 - w) * config_.prior_vibration;
}

void VibrationEstimator::reset() {
  highpass_.reset();
  rms_.reset();
  samples_seen_ = 0;
  rejected_samples_ = 0;
  last_valid_t_s_ = 0.0;
  have_valid_ = false;
}

VibrationTrack::VibrationTrack(const AccelTrace& trace, VibrationConfig config)
    : trace_(&trace),
      estimator_(config),
      windows_(std::make_unique_for_overwrite<eacs::MovingRms::Window[]>(
          trace.size())) {}

double VibrationTrack::level_after(std::size_t k) {
  if (k > trace_->size()) {
    throw std::out_of_range("VibrationTrack: level after " + std::to_string(k) +
                            " samples of a " + std::to_string(trace_->size()) +
                            "-sample trace");
  }
  if (k > filled_) {
    estimator_.consume(std::span(*trace_).subspan(filled_, k - filled_),
                       windows_.get() + filled_);
    filled_ = k;
  }
  return k == 0 ? 0.0 : eacs::MovingRms::rms(windows_[k - 1]);
}

double vibration_level(std::span<const AccelSample> trace, VibrationConfig config) {
  VibrationEstimator estimator(config);
  double level = 0.0;
  for (const auto& sample : trace) level = estimator.update(sample);
  return level;
}

double mean_vibration_level(std::span<const AccelSample> trace, VibrationConfig config) {
  VibrationEstimator estimator(config);
  const std::size_t warmup = config.window_samples();
  eacs::RunningStats stats;
  std::size_t index = 0;
  for (const auto& sample : trace) {
    const double level = estimator.update(sample);
    if (++index >= warmup) stats.add(level);
  }
  // Short traces (< one window): fall back to the final level.
  if (stats.count() == 0) return estimator.level();
  return stats.mean();
}

}  // namespace eacs::sensors
