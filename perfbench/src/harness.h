#pragma once
// Measurement helpers shared by every perfbench workload: seed derivation,
// order statistics with the tail rule, hex-float output digests, in-memory
// spans with self time, the closed-loop unit runner, and the result line.
//
// Nothing here knows about the simulator; workloads live in
// fleet_workloads.cpp and rich_workloads.cpp.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// --- seeds -----------------------------------------------------------------

/// SplitMix64 finalizer: a bijective avalanche mix. Every bit of the input
/// moves about half of the output bits, so adjacent workload seeds (1, 2, ...)
/// give unrelated inputs even after consumers drop low bits.
std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Seed for one input stream of a workload: the avalanche mix of the
/// workload seed, combined with a stream lane and mixed again.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t lane) noexcept;

/// Uniform double in [lo, hi) from a derived seed (53-bit mantissa draw).
double seeded_uniform(std::uint64_t seed, double lo, double hi) noexcept;

// --- order statistics ------------------------------------------------------

/// Linear-interpolated quantile, p in [0, 1] (the "type 7" rule: position
/// p * (n - 1)). Throws std::invalid_argument on empty input or p outside
/// [0, 1].
double quantile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// Samples strictly above the p-quantile's rank: n - ceil(p * n).
std::size_t samples_beyond(std::size_t n, double p) noexcept;

/// The p-quantile, but only when at least `min_beyond` samples lie beyond
/// it; a tail percentile from fewer samples is noise, so it is withheld.
std::optional<double> tail_quantile(const std::vector<double>& samples, double p,
                                    std::size_t min_beyond = 10);

/// Smallest sample count for which tail_quantile(p, min_beyond) exists.
std::size_t min_samples_for_tail(double p, std::size_t min_beyond = 10) noexcept;

// --- output digests --------------------------------------------------------

/// FNV-1a over a canonical text rendering of the values: doubles as C99
/// hex-floats ("%a", every bit of the value), integers in decimal, each
/// followed by a separator. Two outputs hash equal only if every field is
/// bit-identical.
class Digest {
 public:
  Digest& add(double value);
  Digest& add(std::uint64_t value);
  Digest& add(std::int64_t value);
  Digest& add(int value) { return add(static_cast<std::int64_t>(value)); }
  Digest& add(const std::string& text);
  Digest& add(const char* text) { return add(std::string(text)); }

  std::uint64_t value() const noexcept { return hash_; }
  std::string hex() const;

 private:
  void feed(const char* bytes, std::size_t n) noexcept;

  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// --- clocks and spans ------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One recorded span. `parent` indexes the enclosing span (-1 at the top).
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t unit = -1;  ///< unit id the span belongs to (-1: set-up)

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// In-memory span log for one thread. Spans nest through an open-span stack;
/// nothing is written until write_json().
class SpanLog {
 public:
  /// Opens a span as a child of the innermost open span; returns its index.
  int open(std::string name, std::int64_t unit);
  /// Closes the innermost open span, which must be `index`.
  void close(int index);
  /// Records a finished span directly (for intervals timed elsewhere).
  int record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
             int parent, std::int64_t unit);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  int innermost() const noexcept {
    return open_.empty() ? -1 : open_.back();
  }

  /// Durations [ns] of every span with this name, in record order.
  std::vector<double> durations(const std::string& name) const;
  /// Self times [ns] of every span with this name.
  std::vector<double> self_times(const std::string& name) const;

  /// Writes every span as one JSON object per element of a top-level array:
  /// name, unit, parent, start_ns, end_ns, self_ns. Times are relative to the
  /// first span's start.
  void write_json(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans);

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::int64_t unit)
      : log_(log), index_(log ? log->open(std::move(name), unit) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// --- the closed-loop runner ------------------------------------------------

/// One timed unit's record.
struct UnitSample {
  double ms = 0.0;
  double sessions = 0.0;  ///< simulated sessions the unit completed
  double events = 0.0;    ///< simulated events the unit processed
  bool ok = false;        ///< outputs passed every check
};

/// Runs `unit(i)` back to back (closed loop: the next unit starts when the
/// previous one returns) until `seconds` have passed and at least
/// `min_units` have run, or `max_seconds` is hit. `unit` times its own
/// timed region and fills the sample; checks happen outside that region.
std::vector<UnitSample> run_closed_loop(
    double seconds, std::size_t min_units, double max_seconds,
    const std::function<UnitSample(std::size_t)>& unit);

/// End-to-end timing metrics of one run.
struct LoopSummary {
  std::size_t units = 0;
  std::size_t failed = 0;
  double unit_ms_p50 = 0.0;
  std::optional<double> unit_ms_p90;  ///< withheld below the tail rule
  double sessions_per_s = 0.0;        ///< median of per-unit sessions / s
  double ns_per_event = 0.0;          ///< median of per-unit ns / event
  double success_ratio = 0.0;
};

LoopSummary summarize(const std::vector<UnitSample>& samples);

/// Peak resident set (VmHWM) of this process [MB]; 0 when unavailable.
double peak_rss_mb();

// --- the result line -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders the benchmark's last stdout line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
/// with every value printed to 17 significant digits.
std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
