#include "eacs/sensors/sensor_faults.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "eacs/util/rng.h"

namespace eacs::sensors {

namespace {

constexpr std::uint64_t kAccelScheduleSalt = 0xACCE'1F00ULL;
constexpr std::uint64_t kSignalScheduleSalt = 0x5161'AA11ULL;
constexpr std::uint64_t kCorruptionSalt = 0xC0FF'EE42ULL;

void validate_spec(const SensorFaultSpec& spec) {
  if (spec.noise_sigma < 0.0 || !std::isfinite(spec.noise_sigma)) {
    throw std::invalid_argument("SensorFaultSpec: noise_sigma must be finite and >= 0");
  }
  if (spec.saturation_rail <= 0.0 || !std::isfinite(spec.saturation_rail)) {
    throw std::invalid_argument("SensorFaultSpec: saturation_rail must be finite and > 0");
  }
  if (spec.nan_prob < 0.0 || spec.nan_prob > 1.0 || !std::isfinite(spec.nan_prob)) {
    throw std::invalid_argument("SensorFaultSpec: nan_prob must be in [0, 1]");
  }
  if (spec.rate_collapse_keep == 0) {
    throw std::invalid_argument("SensorFaultSpec: rate_collapse_keep must be >= 1");
  }
  // A seeded schedule's rate, and its mean while episodes are drawn; each
  // rule is written so that NaN fails it.
  const auto check_schedule = [](const char* rate_field, double rate,
                                 const char* mean_field, double mean) {
    if (!(std::isfinite(rate) && rate >= 0.0)) {
      throw std::invalid_argument(std::string("SensorFaultSpec: ") + rate_field +
                                  " must be finite and >= 0");
    }
    if (rate > 0.0 && !(std::isfinite(mean) && mean > 0.0)) {
      throw std::invalid_argument(std::string("SensorFaultSpec: ") + mean_field +
                                  " must be finite and > 0");
    }
  };
  check_schedule("accel_episode_rate_per_min", spec.accel_episode_rate_per_min,
                 "accel_episode_mean_s", spec.accel_episode_mean_s);
  check_schedule("signal_dropout_rate_per_min", spec.signal_dropout_rate_per_min,
                 "signal_dropout_mean_s", spec.signal_dropout_mean_s);
  if (spec.accel_episode_rate_per_min > 0.0 && spec.random_fault_types.empty()) {
    throw std::invalid_argument(
        "SensorFaultSpec: random episodes need a non-empty random_fault_types");
  }
  for (const auto* episodes : {&spec.accel_episodes, &spec.signal_episodes}) {
    for (const auto& e : *episodes) {
      if (!std::isfinite(e.start_s) || !std::isfinite(e.end_s) || e.start_s < 0.0 ||
          e.end_s <= e.start_s) {
        throw std::invalid_argument(
            "SensorFaultSpec: episodes need finite 0 <= start < end");
      }
    }
  }
}

// Throws std::invalid_argument naming the first sample of `stream` stamped
// NaN: the schedule lookups binary-search the times and the engine's walks
// stop at the first time past `now`, and a NaN breaks both.
template <typename Stream>
void reject_nan_times(const Stream& stream, const char* what) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (std::isnan(stream[i].t_s)) {
      throw std::invalid_argument(std::string("SensorFaultInjector: ") + what +
                                  " " + std::to_string(i) +
                                  " has a NaN timestamp");
    }
  }
}

// Scripted episodes merged with seeded Poisson-arrival / exponential-duration
// random episodes over [0, horizon), then sorted and clipped so the schedule
// is non-overlapping (earlier episode wins the overlap).
std::vector<SensorFaultEpisode> build_schedule(
    std::vector<SensorFaultEpisode> scripted, double rate_per_min, double mean_s,
    const std::vector<SensorFaultType>& types, double horizon_s,
    std::uint64_t seed) {
  auto schedule = std::move(scripted);
  if (rate_per_min > 0.0 && horizon_s > 0.0 && !types.empty()) {
    Rng rng(seed);
    const double rate_per_s = rate_per_min / 60.0;
    double t = rng.exponential(rate_per_s);
    while (t < horizon_s) {
      const double duration = rng.exponential(1.0 / mean_s);
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(types.size()) - 1));
      schedule.push_back({types[pick], t, std::min(t + duration, horizon_s)});
      t += duration + rng.exponential(rate_per_s);
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const SensorFaultEpisode& a, const SensorFaultEpisode& b) {
              return a.start_s < b.start_s;
            });
  std::vector<SensorFaultEpisode> merged;
  for (auto e : schedule) {
    if (!merged.empty() && e.start_s < merged.back().end_s) {
      e.start_s = merged.back().end_s;  // earlier episode wins the overlap
      if (e.end_s <= e.start_s) continue;
    }
    merged.push_back(e);
  }
  return merged;
}

// Index of the schedule episode covering t_s, or npos.
std::size_t episode_at(const std::vector<SensorFaultEpisode>& schedule,
                       double t_s) noexcept {
  auto it = std::upper_bound(
      schedule.begin(), schedule.end(), t_s,
      [](double t, const SensorFaultEpisode& e) { return t < e.start_s; });
  if (it == schedule.begin()) return static_cast<std::size_t>(-1);
  --it;
  if (t_s < it->end_s) return static_cast<std::size_t>(it - schedule.begin());
  return static_cast<std::size_t>(-1);
}

}  // namespace

SensorFaultInjector::SensorFaultInjector(const AccelTrace& accel,
                                         std::vector<SignalSample> signal,
                                         SensorFaultSpec spec)
    : spec_(std::move(spec)) {
  validate_spec(spec_);
  reject_nan_times(accel, "accel sample");
  reject_nan_times(signal, "signal reading");

  const double accel_horizon = accel.empty() ? 0.0 : accel.back().t_s;
  const double signal_horizon = signal.empty() ? 0.0 : signal.back().t_s;
  accel_schedule_ = build_schedule(
      spec_.accel_episodes, spec_.accel_episode_rate_per_min,
      spec_.accel_episode_mean_s, spec_.random_fault_types, accel_horizon,
      spec_.seed ^ kAccelScheduleSalt);
  signal_schedule_ = build_schedule(
      spec_.signal_episodes, spec_.signal_dropout_rate_per_min,
      spec_.signal_dropout_mean_s, {SensorFaultType::kDropout}, signal_horizon,
      spec_.seed ^ kSignalScheduleSalt);

  // One deterministic corruption stream; draws happen in sample order, so the
  // corrupted trace is a pure function of (accel, spec).
  Rng corrupt(spec_.seed ^ kCorruptionSalt);

  accel_.reserve(accel.size());
  AccelSample held{};          // last delivered sample, for kStuckAt
  bool have_held = false;
  std::size_t prev_episode = static_cast<std::size_t>(-1);
  std::size_t collapse_counter = 0;
  for (const auto& sample : accel) {
    const std::size_t ep = episode_at(accel_schedule_, sample.t_s);
    if (ep != prev_episode) collapse_counter = 0;
    prev_episode = ep;
    if (ep == static_cast<std::size_t>(-1)) {
      accel_.push_back(sample);
      held = sample;
      have_held = true;
      continue;
    }
    AccelSample out = sample;
    switch (accel_schedule_[ep].type) {
      case SensorFaultType::kDropout:
        continue;  // sample never delivered
      case SensorFaultType::kStuckAt:
        // An episode that starts before any good reading freezes on the first
        // value the sensor produces, like a driver that wedges at boot.
        if (!have_held) {
          held = sample;
          have_held = true;
        }
        out.x = held.x;
        out.y = held.y;
        out.z = held.z;
        break;
      case SensorFaultType::kNoiseBurst:
        out.x += corrupt.normal(0.0, spec_.noise_sigma);
        out.y += corrupt.normal(0.0, spec_.noise_sigma);
        out.z += corrupt.normal(0.0, spec_.noise_sigma);
        break;
      case SensorFaultType::kSaturation:
        out.x = spec_.saturation_rail;
        out.y = spec_.saturation_rail;
        out.z = spec_.saturation_rail;
        break;
      case SensorFaultType::kNanCorruption:
        if (corrupt.bernoulli(spec_.nan_prob)) {
          out.x = std::numeric_limits<double>::quiet_NaN();
          out.y = std::numeric_limits<double>::quiet_NaN();
          out.z = std::numeric_limits<double>::quiet_NaN();
        }
        break;
      case SensorFaultType::kRateCollapse:
        if (collapse_counter++ % spec_.rate_collapse_keep != 0) continue;
        break;
    }
    accel_.push_back(out);
    // Corrupted-but-delivered samples do not refresh the stuck-at hold: a
    // frozen driver repeats the last *good* reading it latched.
    if (accel_schedule_[ep].type != SensorFaultType::kStuckAt &&
        accel_schedule_[ep].type != SensorFaultType::kNanCorruption) {
      held = out;
      have_held = true;
    }
  }

  signal_.reserve(signal.size());
  for (const auto& reading : signal) {
    if (episode_at(signal_schedule_, reading.t_s) != static_cast<std::size_t>(-1)) {
      continue;  // reading suppressed during the dropout
    }
    signal_.push_back(reading);
  }
}

bool SensorFaultInjector::accel_in_fault(double t_s,
                                         SensorFaultType* type) const noexcept {
  const std::size_t ep = episode_at(accel_schedule_, t_s);
  if (ep == static_cast<std::size_t>(-1)) return false;
  if (type != nullptr) *type = accel_schedule_[ep].type;
  return true;
}

double SensorFaultInjector::signal_at(double t_s) const noexcept {
  if (signal_.empty()) return -90.0;
  auto it = std::upper_bound(
      signal_.begin(), signal_.end(), t_s,
      [](double t, const SignalSample& s) { return t < s.t_s; });
  if (it == signal_.begin()) return signal_.front().dbm;
  return std::prev(it)->dbm;
}

double SensorFaultInjector::signal_age_s(double t_s) const noexcept {
  auto it = std::upper_bound(
      signal_.begin(), signal_.end(), t_s,
      [](double t, const SignalSample& s) { return t < s.t_s; });
  if (it == signal_.begin()) return std::numeric_limits<double>::infinity();
  return std::max(0.0, t_s - std::prev(it)->t_s);
}

}  // namespace eacs::sensors
