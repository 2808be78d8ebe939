#include "eacs/sensors/vibration.h"

#include <algorithm>
#include <cmath>
#include <limits>
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
          trace.size())),
      max_t_(std::make_unique_for_overwrite<double[]>(trace.size())) {}

void VibrationTrack::fill_to(std::size_t k) {
  const AccelTrace& trace = *trace_;
  estimator_.consume(std::span(trace).subspan(filled_, k - filled_),
                     windows_.get() + filled_);
  // NaN sticks: every comparison with it is false, so a walk that reaches a
  // NaN timestamp stops there for good. (`!(t <= max_t)` would let a later
  // time replace a NaN maximum, and std::max would drop a NaN t.)
  double max_t = filled_ == 0 ? -std::numeric_limits<double>::infinity()
                              : max_t_[filled_ - 1];
  for (std::size_t i = filled_; i < k; ++i) {
    const double t = trace[i].t_s;
    if (t > max_t || std::isnan(t)) max_t = t;
    max_t_[i] = max_t;
  }
  filled_ = k;
}

double VibrationTrack::level_after(std::size_t k) {
  if (k > trace_->size()) {
    throw std::out_of_range("VibrationTrack: level after " + std::to_string(k) +
                            " samples of a " + std::to_string(trace_->size()) +
                            "-sample trace");
  }
  if (k > filled_) fill_to(k);
  return k == 0 ? 0.0 : eacs::MovingRms::rms(windows_[k - 1]);
}

std::size_t VibrationTrack::advance(std::size_t from, double t_s) {
  // Let T be the latest time the reader asked for before: `from` is the
  // first sample whose timestamp is not <= T, which is the first index whose
  // running maximum is not <= T (0 for a new reader). For t_s <= T the walk
  // stops at `from` at once, and the running maximum there is not <= t_s
  // either. For t_s > T every sample before `from` is <= t_s, so the walk
  // stops where one from 0 would: at the first index whose running maximum
  // is not <= t_s. Either way the search below finds the walk's stop.
  std::size_t stop = from;
  if (stop < filled_) {
    const double* max_t = max_t_.get();
    const auto within = [t_s](double m) { return m <= t_s; };
    if (!within(max_t[stop])) return stop;
    // Gallop: `lo` is within, `hi` the next probe, `step` doubling.
    std::size_t lo = stop;
    std::size_t step = 1;
    std::size_t hi = lo + 1;
    while (hi < filled_ && within(max_t[hi])) {
      lo = hi;
      step *= 2;
      hi = lo + step;
    }
    hi = std::min(hi, filled_);
    stop = static_cast<std::size_t>(
        std::partition_point(max_t + lo + 1, max_t + hi, within) - max_t);
    if (stop < filled_) return stop;
  }
  // Past the fill: walk the samples, then fill up to where the walk stopped.
  const AccelTrace& trace = *trace_;
  while (stop < trace.size() && trace[stop].t_s <= t_s) ++stop;
  if (stop > filled_) fill_to(stop);
  return stop;
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
