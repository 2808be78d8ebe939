#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t lane) noexcept {
  return splitmix64(splitmix64(workload_seed) ^ splitmix64(lane + 0x5EEDULL));
}

double seeded_uniform(std::uint64_t seed, double lo, double hi) noexcept {
  const double u = static_cast<double>(splitmix64(seed) >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("quantile: no samples");
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("quantile: p outside [0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

std::size_t samples_beyond(std::size_t n, double p) noexcept {
  // ceil with a guard against p * n landing a hair above an integer.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const auto at_or_below = static_cast<std::size_t>(std::max(rank, 0.0));
  return n > at_or_below ? n - at_or_below : 0;
}

std::optional<double> tail_quantile(const std::vector<double>& samples, double p,
                                    std::size_t min_beyond) {
  if (samples.empty() || samples_beyond(samples.size(), p) < min_beyond) {
    return std::nullopt;
  }
  return quantile(samples, p);
}

std::size_t min_samples_for_tail(double p, std::size_t min_beyond) noexcept {
  std::size_t n = 1;
  while (samples_beyond(n, p) < min_beyond) ++n;
  return n;
}

Digest& Digest::add(double value) {
  char text[48];
  const int n = std::snprintf(text, sizeof text, "%a;", value);
  feed(text, static_cast<std::size_t>(n));
  return *this;
}

Digest& Digest::add(std::uint64_t value) {
  char text[32];
  const int n = std::snprintf(text, sizeof text, "%" PRIu64 ";", value);
  feed(text, static_cast<std::size_t>(n));
  return *this;
}

Digest& Digest::add(std::int64_t value) {
  char text[32];
  const int n = std::snprintf(text, sizeof text, "%" PRId64 ";", value);
  feed(text, static_cast<std::size_t>(n));
  return *this;
}

Digest& Digest::add(const std::string& text) {
  feed(text.data(), text.size());
  feed(";", 1);
  return *this;
}

std::string Digest::hex() const {
  char text[24];
  std::snprintf(text, sizeof text, "%016" PRIx64, hash_);
  return text;
}

void Digest::feed(const char* bytes, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= static_cast<unsigned char>(bytes[i]);
    hash_ *= 0x100000001B3ULL;
  }
}

int SpanLog::open(std::string name, std::int64_t unit) {
  const int index = record(std::move(name), now_ns(), 0, innermost(), unit);
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

int SpanLog::record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                    int parent, std::int64_t unit) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, unit});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(static_cast<double>(span.duration_ns()));
  }
  return out;
}

std::vector<double> SpanLog::self_times(const std::string& name) const {
  const std::vector<std::int64_t> self = perfbench::self_times(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(static_cast<double>(self[i]));
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SpanLog: cannot write " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<std::int64_t> self = perfbench::self_times(spans_);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"unit\": " << s.unit
        << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << (s.start_ns - origin)
        << ", \"end_ns\": " << (s.end_ns - origin)
        << ", \"self_ns\": " << self[i] << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // Child intervals clipped to the parent, merged so overlaps count once.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t busy = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) busy += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) busy += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(span.duration_ns() - busy, 0);
  }
  return self;
}

std::vector<UnitSample> run_closed_loop(
    double seconds, std::size_t min_units, double max_seconds,
    const std::function<UnitSample(std::size_t)>& unit) {
  std::vector<UnitSample> samples;
  const auto start = Clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (std::size_t i = 0;; ++i) {
    const double t = elapsed_s();
    if (t >= max_seconds) break;
    if (t >= seconds && samples.size() >= min_units) break;
    samples.push_back(unit(i));
  }
  return samples;
}

LoopSummary summarize(const std::vector<UnitSample>& samples) {
  LoopSummary summary;
  summary.units = samples.size();
  if (samples.empty()) return summary;
  std::vector<double> ms;
  std::vector<double> sessions_per_s;
  std::vector<double> ns_per_event;
  for (const UnitSample& s : samples) {
    if (!s.ok) ++summary.failed;
    ms.push_back(s.ms);
    if (s.ms > 0.0) sessions_per_s.push_back(s.sessions / (s.ms * 1e-3));
    if (s.events > 0.0) ns_per_event.push_back(s.ms * 1e6 / s.events);
  }
  summary.unit_ms_p50 = median(ms);
  summary.unit_ms_p90 = tail_quantile(ms, 0.9);
  if (!sessions_per_s.empty()) summary.sessions_per_s = median(sessions_per_s);
  if (!ns_per_event.empty()) summary.ns_per_event = median(ns_per_event);
  summary.success_ratio =
      static_cast<double>(summary.units - summary.failed) /
      static_cast<double>(summary.units);
  return summary;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
