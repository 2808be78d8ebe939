#include "eacs/net/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "eacs/util/rng.h"

namespace eacs::net {
namespace {

// Per-attempt seed: a pure function of (spec seed, segment, attempt) so a
// retry of one segment never perturbs what any other attempt draws.
std::uint64_t attempt_seed(std::uint64_t seed, std::size_t segment,
                           std::size_t attempt) noexcept {
  std::uint64_t x =
      seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(segment) + 1));
  x ^= 0xBF58476D1CE4E5B9ULL * (static_cast<std::uint64_t>(attempt) + 1);
  return x;
}

// The spec with every field in range, else std::invalid_argument naming the
// first field that is not. Each rule is written so that NaN fails it.
FaultSpec checked(FaultSpec spec) {
  const auto reject = [](const char* field, const char* rule) {
    throw std::invalid_argument(std::string("FaultSpec: ") + field + rule);
  };
  const std::pair<const char*, double> probabilities[] = {
      {"failure_prob", spec.failure_prob}, {"stall_prob", spec.stall_prob}};
  for (const auto& [field, p] : probabilities) {
    if (!(p >= 0.0 && p <= 1.0)) reject(field, " must be in [0, 1]");
  }
  if (!(std::isfinite(spec.outage_rate_per_min) && spec.outage_rate_per_min >= 0.0)) {
    reject("outage_rate_per_min", " must be finite and >= 0");
  }
  if (spec.outage_rate_per_min > 0.0 &&
      !(std::isfinite(spec.outage_mean_s) && spec.outage_mean_s > 0.0)) {
    reject("outage_mean_s", " must be finite and > 0");
  }
  if (!(std::isfinite(spec.signal_failure_per_db) &&
        spec.signal_failure_per_db >= 0.0)) {
    reject("signal_failure_per_db", " must be finite and >= 0");
  }
  if (!std::isfinite(spec.signal_threshold_dbm)) {
    reject("signal_threshold_dbm", " must be finite");
  }
  if (!(std::isfinite(spec.stall_rate_mbps) && spec.stall_rate_mbps > 0.0)) {
    reject("stall_rate_mbps", " must be finite and > 0");
  }
  return spec;
}

}  // namespace

std::vector<OutageWindow> build_outage_schedule(
    const std::vector<OutageWindow>& scripted, double rate_per_min,
    double mean_s, std::uint64_t seed, const trace::TimeSeries& trace) {
  std::vector<OutageWindow> windows;
  for (const auto& w : scripted) {
    if (!std::isfinite(w.start_s) || !std::isfinite(w.end_s)) {
      throw std::invalid_argument("FaultSpec: outages need finite window edges");
    }
    if (w.end_s < w.start_s) {
      throw std::invalid_argument("FaultSpec: outage window ends before it starts");
    }
    if (w.duration_s() > 0.0) windows.push_back(w);
  }

  if (rate_per_min > 0.0) {
    eacs::Rng rng(seed);
    const double rate_per_s = rate_per_min / 60.0;
    const double clamped_mean_s = std::max(mean_s, 1e-3);
    double t = trace.start_time() + rng.exponential(rate_per_s);
    while (t < trace.end_time()) {
      const double duration = rng.exponential(1.0 / clamped_mean_s);
      windows.push_back({t, t + duration});
      t += duration + rng.exponential(rate_per_s);
    }
  }

  std::sort(windows.begin(), windows.end(),
            [](const OutageWindow& a, const OutageWindow& b) {
              return a.start_s < b.start_s;
            });
  std::vector<OutageWindow> merged;
  for (const auto& w : windows) {
    if (!merged.empty() && w.start_s <= merged.back().end_s) {
      merged.back().end_s = std::max(merged.back().end_s, w.end_s);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

trace::TimeSeries outage_zeroed_trace(const trace::TimeSeries& original,
                                      const std::vector<OutageWindow>& windows) {
  if (windows.empty()) return original;

  const auto inside = [&](double t) {
    for (const auto& w : windows) {
      if (t < w.start_s) break;
      if (t < w.end_s) return true;
    }
    return false;
  };

  // Rank orders coincident events: pre-edge value, original sample, post-edge
  // value — so at a window start the healthy value precedes the zero, and at
  // a window end the zero precedes the restored value.
  struct Event {
    double t;
    int rank;
    double value;
  };
  std::vector<Event> events;
  events.reserve(original.size() + 4 * windows.size());
  for (const auto& p : original.samples()) {
    events.push_back({p.t_s, 1, inside(p.t_s) ? 0.0 : p.value});
  }
  for (const auto& w : windows) {
    events.push_back({w.start_s, 0, original.linear_at(w.start_s)});
    events.push_back({w.start_s, 2, 0.0});
    events.push_back({w.end_s, 0, 0.0});
    events.push_back({w.end_s, 2, original.linear_at(w.end_s)});
  }
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.rank < b.rank);
  });

  trace::TimeSeries out;
  for (const auto& e : events) {
    if (!out.empty() && out.samples().back().t_s == e.t &&
        out.samples().back().value == e.value) {
      continue;  // collapse exact duplicates the event expansion produced
    }
    out.append(e.t, e.value);
  }
  return out;
}

FaultInjector::FaultInjector(const trace::TimeSeries& throughput_mbps, FaultSpec spec,
                             const trace::TimeSeries* signal_dbm)
    : spec_(checked(std::move(spec))),
      signal_(signal_dbm),
      schedule_(build_outage_schedule(spec_.outages, spec_.outage_rate_per_min,
                                      spec_.outage_mean_s,
                                      spec_.seed ^ 0x0074'A6E5ULL,
                                      throughput_mbps)),
      downloader_(outage_zeroed_trace(throughput_mbps, schedule_)) {
  if (spec_.signal_failure_per_db > 0.0 && signal_ == nullptr) {
    throw std::invalid_argument(
        "FaultInjector: signal-coupled failures need a signal trace");
  }
}

bool FaultInjector::in_outage(double t_s) const noexcept {
  for (const auto& w : schedule_) {
    if (t_s < w.start_s) return false;
    if (t_s < w.end_s) return true;
  }
  return false;
}

double FaultInjector::failure_probability(double t_s) const {
  double p = spec_.failure_prob;
  if (spec_.signal_failure_per_db > 0.0 && signal_ != nullptr) {
    const double deficit =
        std::max(0.0, spec_.signal_threshold_dbm - signal_->linear_at(t_s));
    p += spec_.signal_failure_per_db * deficit;
  }
  // Capped below 1 so bounded retries always have a chance of progress.
  return std::clamp(p, 0.0, 0.95);
}

AttemptOutcome FaultInjector::attempt(std::size_t segment_index, std::size_t attempt,
                                      double start_s, double size_megabits) const {
  AttemptOutcome out;
  if (!active()) {
    out.result = downloader_.download(start_s, size_megabits);
    return out;
  }

  eacs::Rng rng(attempt_seed(spec_.seed, segment_index, attempt));
  // Fixed draw order (stall, fail, fraction) keeps outcomes reproducible.
  const bool stalled = rng.bernoulli(spec_.stall_prob);
  const bool failed = rng.bernoulli(failure_probability(start_s));
  const double fraction = rng.uniform(0.05, 0.95);

  if (stalled) {
    out.stalled = true;
    const double rate = std::max(spec_.stall_rate_mbps, 1e-6);
    out.result.start_s = start_s;
    out.result.size_megabits = size_megabits;
    out.result.end_s = start_s + size_megabits / rate;
    out.result.mean_throughput_mbps = rate;
    return out;
  }

  out.result = downloader_.download(start_s, size_megabits);
  if (failed) {
    out.failed = true;
    out.fail_fraction = fraction;
    out.fail_at_s =
        size_megabits > 0.0
            ? downloader_.download(start_s, size_megabits * fraction).end_s
            : start_s;
  }
  return out;
}

double FaultInjector::megabits_over(double t0, double t1) const {
  return downloader_.trace().integral_over(t0, t1);
}

}  // namespace eacs::net
