#include "eacs/net/segment_source.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "eacs/util/rng.h"

namespace eacs::net {
namespace {

// Per-attempt seed: pure in (spec seed, source id, segment, attempt), so a
// hedged duplicate on one source never perturbs another source's draws and
// two sources sharing a spec seed still fail independently.
std::uint64_t source_attempt_seed(std::uint64_t seed, std::size_t source_id,
                                  std::size_t segment,
                                  std::size_t attempt) noexcept {
  std::uint64_t x =
      seed ^ (0x94D049BB133111EBULL * (static_cast<std::uint64_t>(source_id) + 1));
  x ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(segment) + 1);
  x ^= 0xBF58476D1CE4E5B9ULL * (static_cast<std::uint64_t>(attempt) + 1);
  return x;
}

// Capacity trace of one source. Exactly 1.0 returns the original unchanged
// (bitwise — required by the trivial-source no-op contract).
trace::TimeSeries scaled_trace(const trace::TimeSeries& original, double scale) {
  if (scale == 1.0) return original;
  trace::TimeSeries out;
  for (const auto& p : original.samples()) out.append(p.t_s, p.value * scale);
  return out;
}

// The config with every field in range, else std::invalid_argument naming
// the first field that is not. Each rule is written so that NaN fails it.
CdnSourceConfig checked(CdnSourceConfig config) {
  const CdnFaultSpec& f = config.faults;
  const auto reject = [](const char* who, const char* field, const char* rule) {
    throw std::invalid_argument(std::string(who) + ": " + field + rule);
  };
  const std::pair<const char*, double> probabilities[] = {
      {"error_prob", f.error_prob},
      {"episode_error_prob", f.episode_error_prob},
      {"truncate_prob", f.truncate_prob},
      {"corrupt_prob", f.corrupt_prob},
      {"slow_start_prob", f.slow_start_prob}};
  for (const auto& [field, p] : probabilities) {
    if (!(p >= 0.0 && p <= 1.0)) reject("CdnFaultSpec", field, " must be in [0, 1]");
  }
  // A seeded schedule's rate, and its mean while windows are drawn.
  const auto check_schedule = [&](const char* rate_field, double rate,
                                  const char* mean_field, double mean) {
    if (!(std::isfinite(rate) && rate >= 0.0)) {
      reject("CdnFaultSpec", rate_field, " must be finite and >= 0");
    }
    if (rate > 0.0 && !(std::isfinite(mean) && mean > 0.0)) {
      reject("CdnFaultSpec", mean_field, " must be finite and > 0");
    }
  };
  check_schedule("outage_rate_per_min", f.outage_rate_per_min, "outage_mean_s",
                 f.outage_mean_s);
  check_schedule("error_rate_per_min", f.error_rate_per_min,
                 "error_episode_mean_s", f.error_episode_mean_s);
  if (!(f.slow_scale > 0.0 && f.slow_scale <= 1.0)) {
    reject("CdnFaultSpec", "slow_scale", " must be in (0, 1]");
  }
  if (!(std::isfinite(config.throughput_scale) && config.throughput_scale > 0.0)) {
    reject("SegmentSource", "throughput_scale", " must be finite and > 0");
  }
  if (!(std::isfinite(config.base_rtt_s) && config.base_rtt_s >= 0.0)) {
    reject("SegmentSource", "base_rtt_s", " must be finite and >= 0");
  }
  return config;
}

bool inside_windows(const std::vector<OutageWindow>& windows,
                    double t_s) noexcept {
  for (const auto& w : windows) {
    if (t_s < w.start_s) return false;
    if (t_s < w.end_s) return true;
  }
  return false;
}

}  // namespace

// --- SegmentSource ----------------------------------------------------------

SegmentSource::SegmentSource(const trace::TimeSeries& throughput_mbps,
                             CdnSourceConfig config,
                             const trace::TimeSeries* signal_dbm)
    : config_(checked(std::move(config))),
      signal_(signal_dbm),
      outages_(build_outage_schedule(
          config_.faults.outages, config_.faults.outage_rate_per_min,
          config_.faults.outage_mean_s, config_.faults.seed ^ 0x00D4'A6E5ULL,
          throughput_mbps)),
      episodes_(build_outage_schedule(
          {}, config_.faults.error_rate_per_min,
          config_.faults.error_episode_mean_s,
          config_.faults.seed ^ 0x0E44'0E44ULL, throughput_mbps)),
      downloader_(outage_zeroed_trace(
          scaled_trace(throughput_mbps, config_.throughput_scale), outages_)) {}

bool SegmentSource::in_outage(double t_s) const noexcept {
  return inside_windows(outages_, t_s);
}

double SegmentSource::error_probability(double t_s) const noexcept {
  const auto& f = config_.faults;
  const double p = inside_windows(episodes_, t_s)
                       ? std::max(f.error_prob, f.episode_error_prob)
                       : f.error_prob;
  // Capped below 1 so bounded retries always have a chance of progress.
  return std::clamp(p, 0.0, 0.95);
}

SourceAttemptOutcome SegmentSource::attempt(std::size_t segment,
                                            std::size_t attempt, double start_s,
                                            double size_megabits) const {
  SourceAttemptOutcome out;
  const double rtt = config_.base_rtt_s;

  // The RTT surcharge delays every completion; the measured throughput the
  // estimator sees includes it (size over wall time, as a client measures).
  const auto with_rtt = [&](DownloadResult result) {
    if (rtt > 0.0) {
      result.end_s += rtt;
      const double elapsed = result.end_s - result.start_s;
      if (elapsed > 0.0 && result.size_megabits > 0.0) {
        result.mean_throughput_mbps = result.size_megabits / elapsed;
      }
    }
    return result;
  };

  if (!config_.faults.enabled()) {
    out.result = with_rtt(downloader_.download(start_s, size_megabits));
    return out;
  }

  eacs::Rng rng(
      source_attempt_seed(config_.faults.seed, config_.id, segment, attempt));
  // Fixed draw order (error, truncate, corrupt, slow, fraction) keeps
  // outcomes reproducible regardless of which families are enabled; the
  // families apply in that precedence order.
  const bool http_error = rng.bernoulli(error_probability(start_s));
  const bool truncated = rng.bernoulli(config_.faults.truncate_prob);
  const bool corrupted = rng.bernoulli(config_.faults.corrupt_prob);
  const bool slow = rng.bernoulli(config_.faults.slow_start_prob);
  const double fraction = rng.uniform(0.05, 0.95);

  if (http_error) {
    // 4xx/5xx: dies after one RTT with headers only — no payload bytes.
    out.kind = CdnAttemptClass::kHttpError;
    out.failed = true;
    out.fail_at_s = start_s + std::max(rtt, 0.05);
    out.fail_fraction = 0.0;
    out.result = with_rtt(downloader_.download(start_s, size_megabits));
    return out;
  }

  if (slow) {
    // Stuck in slow start: the transfer crawls at slow_scale of capacity.
    out.kind = CdnAttemptClass::kSlow;
    const auto full = downloader_.download(start_s, size_megabits);
    out.result.start_s = start_s;
    out.result.size_megabits = size_megabits;
    out.result.end_s =
        start_s + full.duration_s() / config_.faults.slow_scale + rtt;
    const double elapsed = out.result.end_s - start_s;
    out.result.mean_throughput_mbps =
        elapsed > 0.0 ? size_megabits / elapsed : 0.0;
    if (truncated) {
      out.failed = true;
      out.kind = CdnAttemptClass::kTruncated;
      out.fail_fraction = fraction;
      out.fail_at_s = start_s + elapsed * fraction;
    }
    return out;
  }

  out.result = with_rtt(downloader_.download(start_s, size_megabits));
  if (truncated) {
    out.kind = CdnAttemptClass::kTruncated;
    out.failed = true;
    out.fail_fraction = fraction;
    out.fail_at_s =
        size_megabits > 0.0
            ? downloader_.download(start_s, size_megabits * fraction).end_s + rtt
            : start_s;
  } else if (corrupted) {
    // Full payload, failed checksum: every byte moved is waste.
    out.kind = CdnAttemptClass::kCorrupted;
    out.failed = true;
    out.fail_fraction = 1.0;
    out.fail_at_s = out.result.end_s;
  }
  return out;
}

DownloadResult SegmentSource::rescue(double start_s, double size_megabits) const {
  return downloader_.download(start_s, size_megabits);
}

double SegmentSource::megabits_over(double t0, double t1) const {
  return downloader_.trace().integral_over(t0, t1);
}

// --- CircuitBreaker ---------------------------------------------------------

void CircuitBreaker::set_state(BreakerState next) noexcept {
  if (next != state_) {
    state_ = next;
    ++transitions_;
  }
}

bool CircuitBreaker::allow(double now_s) {
  if (state_ == BreakerState::kOpen &&
      now_s >= opened_at_s_ + kOpenCooldownS) {
    probe_successes_ = 0;
    set_state(BreakerState::kHalfOpen);
  }
  return state_ != BreakerState::kOpen;
}

double CircuitBreaker::failure_rate() const noexcept {
  if (filled_ == 0) return 0.0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < filled_; ++i) {
    if (window_[i]) ++failures;
  }
  return static_cast<double>(failures) / static_cast<double>(filled_);
}

void CircuitBreaker::record_success(double /*now_s*/) {
  if (state_ == BreakerState::kHalfOpen) {
    if (++probe_successes_ >= kHalfOpenSuccesses) {
      // Close with a clean slate: old failures do not re-trip the breaker.
      window_.fill(false);
      cursor_ = 0;
      filled_ = 0;
      set_state(BreakerState::kClosed);
    }
    return;
  }
  if (state_ == BreakerState::kOpen) return;
  window_[cursor_] = false;
  cursor_ = (cursor_ + 1) % kWindow;
  filled_ = std::min(filled_ + 1, kWindow);
}

void CircuitBreaker::record_failure(double now_s) {
  if (state_ == BreakerState::kHalfOpen) {
    opened_at_s_ = now_s;
    set_state(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kOpen) return;
  window_[cursor_] = true;
  cursor_ = (cursor_ + 1) % kWindow;
  filled_ = std::min(filled_ + 1, kWindow);
  if (filled_ >= kMinSamples && failure_rate() >= kFailureThreshold) {
    opened_at_s_ = now_s;
    set_state(BreakerState::kOpen);
  }
}

// --- SourceSelector ---------------------------------------------------------

SourceSelector::SourceSelector(std::span<const SegmentSource> sources)
    : sources_(sources), breakers_(sources.size()) {
  if (sources_.empty()) {
    throw std::invalid_argument("SourceSelector: need at least one source");
  }
  scores_.reserve(sources_.size());
  for (const auto& source : sources_) {
    scores_.push_back(source.config().throughput_scale);
  }
}

std::size_t SourceSelector::pick_primary(double now_s) {
  std::size_t best = scores_.size();
  for (std::size_t i = 0; i < scores_.size(); ++i) {
    if (!breakers_[i].allow(now_s)) continue;
    if (best == scores_.size() || scores_[i] > scores_[best]) best = i;
  }
  if (best != scores_.size()) return best;
  // Every breaker is open: fall back to the best score overall so the
  // session always makes progress (the request doubles as a probe).
  best = 0;
  for (std::size_t i = 1; i < scores_.size(); ++i) {
    if (scores_[i] > scores_[best]) best = i;
  }
  return best;
}

std::optional<std::size_t> SourceSelector::pick_backup(double now_s,
                                                       std::size_t primary) {
  std::size_t best = scores_.size();
  for (std::size_t i = 0; i < scores_.size(); ++i) {
    if (i == primary || !breakers_[i].allow(now_s)) continue;
    if (best == scores_.size() || scores_[i] > scores_[best]) best = i;
  }
  if (best == scores_.size()) return std::nullopt;
  return best;
}

void SourceSelector::record(std::size_t source, bool success, double mbps,
                            double now_s) {
  if (source >= scores_.size()) {
    throw std::out_of_range("SourceSelector: source index out of range");
  }
  if (success) {
    scores_[source] = (1.0 - kEwmaAlpha) * scores_[source] +
                      kEwmaAlpha * std::max(mbps, 0.0);
    breakers_[source].record_success(now_s);
  } else {
    // No throughput observation: decay the score toward zero so a failing
    // source loses its standing even before the breaker trips.
    scores_[source] *= 1.0 - kEwmaAlpha;
    breakers_[source].record_failure(now_s);
  }
}

}  // namespace eacs::net
