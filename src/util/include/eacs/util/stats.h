#pragma once
// Descriptive statistics helpers used across the evaluation pipeline (Jain's
// fairness index for the shared-bottleneck runs among them), plus the
// streaming aggregators the fleet simulator folds per-session metrics into
// (P^2 online quantiles, seeded reservoir sampling) so 100k-session runs
// report percentiles without retaining per-session results.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "eacs/util/rng.h"

namespace eacs {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Population variance; returns 0 for spans shorter than 2.
double variance(std::span<const double> xs) noexcept;

/// Population standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Root mean square.
double rms(std::span<const double> xs) noexcept;

/// Harmonic mean of strictly positive samples; non-positive samples are
/// ignored. Returns 0 if no positive sample exists.
///
/// This is the bandwidth estimator primitive used by FESTIVE and by the
/// paper's online algorithm: the harmonic mean damps the effect of isolated
/// throughput spikes, which otherwise cause over-optimistic bitrate choices.
/// Inline because the fleet's event loop calls it on every request.
inline double harmonic_mean(std::span<const double> xs) noexcept {
  double denom = 0.0;
  std::size_t positives = 0;
  for (double x : xs) {
    if (x > 0.0) {
      denom += 1.0 / x;
      ++positives;
    }
  }
  if (positives == 0) return 0.0;
  return static_cast<double>(positives) / denom;
}

/// Jain's fairness index, (sum x)^2 / (n * sum x^2): 1 when every sample is
/// equal, 1/n when one sample holds everything. Returns 1 for an empty span
/// or an all-zero one. The shared-bottleneck benches and tests score the
/// clients' mean bitrates with it.
double jain_fairness(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. Returns 0 for empty input.
double percentile(std::vector<double> xs, double p) noexcept;

/// Pearson correlation coefficient; 0 if either side is constant or empty.
double pearson(std::span<const double> xs, std::span<const double> ys) noexcept;

/// Full internal state of a RunningStats accumulator. Exposed for the fleet
/// checkpoint (DESIGN §14): restore(state()) reproduces the accumulator
/// bit-for-bit, so serialize -> restore -> add/merge equals never-serialized.
struct RunningStatsState {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  bool operator==(const RunningStatsState&) const = default;
};

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  /// Checkpoint-safe state round-trip: the state struct is the storage, so
  /// state() is every internal field and restore() reinstates them exactly.
  const RunningStatsState& state() const noexcept { return s_; }
  void restore(const RunningStatsState& state) noexcept { s_ = state; }

  std::size_t count() const noexcept { return s_.count; }
  double mean() const noexcept { return s_.count == 0 ? 0.0 : s_.mean; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return s_.count == 0 ? 0.0 : s_.min; }
  double max() const noexcept { return s_.count == 0 ? 0.0 : s_.max; }
  double sum() const noexcept { return s_.sum; }

 private:
  RunningStatsState s_;
};

/// Fixed-capacity sliding window over recent samples, oldest evicted first.
/// Used by the bandwidth estimators (harmonic mean over the last K segment
/// throughputs) and by the vibration estimator's RMS window.
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void push(double x);
  void clear() noexcept;

  std::size_t size() const noexcept { return items_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return items_.size() == capacity_; }

  /// Snapshot of the window contents in insertion order (oldest first).
  std::vector<double> values() const;

  double mean() const noexcept;
  double harmonic_mean() const noexcept;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest element once full
  std::vector<double> items_;
};

/// Full internal state of a P2Quantile estimator (markers, positions, and
/// bootstrap count). P^2 is deliberately NOT mergeable; exposing the state
/// instead makes it checkpoint-safe: restore(state()) continues the stream
/// bit-for-bit where the checkpoint cut it.
struct P2QuantileState {
  double p = 0.5;
  std::size_t count = 0;
  std::array<double, 5> heights{};     ///< marker heights q_i
  std::array<double, 5> positions{};   ///< actual marker positions n_i
  std::array<double, 5> desired{};     ///< desired marker positions n'_i
  std::array<double, 5> increments{};  ///< dn'_i per observation

  bool operator==(const P2QuantileState&) const = default;
};

/// Online quantile estimator (Jain & Chlamtac's P^2 algorithm): tracks one
/// quantile of an unbounded stream in O(1) memory with five markers. Exact
/// until five samples have arrived, then piecewise-parabolic interpolation.
/// Deterministic: the estimate is a pure function of the sample sequence.
/// P^2 state is not mergeable — use ReservoirSampler when shard results must
/// be combined.
class P2Quantile {
 public:
  /// `p` is the quantile in (0, 1), e.g. 0.5 for the median; throws
  /// std::invalid_argument outside that range.
  explicit P2Quantile(double p);

  void add(double x);

  /// Checkpoint-safe state round-trip (the state struct is the storage).
  /// restore() throws std::invalid_argument when the quantile parameter is
  /// outside (0, 1).
  const P2QuantileState& state() const noexcept { return s_; }
  void restore(const P2QuantileState& state);

  std::size_t count() const noexcept { return s_.count; }
  double p() const noexcept { return s_.p; }

  /// Current estimate; 0 before any sample (matching percentile()'s
  /// empty-input convention).
  double value() const noexcept;

 private:
  P2QuantileState s_;
};

/// Full internal state of a ReservoirSampler: the kept sample, the stream
/// count, and the exact Rng engine state — everything the remaining stream's
/// keep/evict draws depend on. Restoring it makes checkpointed sampling
/// bit-identical to uninterrupted sampling, including across merges.
struct ReservoirSamplerState {
  std::size_t capacity = 1;
  std::size_t count = 0;
  RngState rng;
  std::vector<double> items;

  bool operator==(const ReservoirSamplerState&) const = default;
};

/// Fixed-capacity uniform sample of an unbounded stream (Algorithm R with a
/// seeded eacs::Rng, so the kept sample is a pure function of (seed, stream)).
/// Quantiles of the reservoir approximate stream quantiles with error
/// O(1/sqrt(capacity)); `merge` combines shard reservoirs by count-weighted
/// interleave, which keeps the uniformity guarantee and — merged in a fixed
/// shard order — is bit-deterministic at any worker count (DESIGN §6).
class ReservoirSampler {
 public:
  /// Throws std::invalid_argument on zero capacity.
  explicit ReservoirSampler(std::size_t capacity, std::uint64_t seed = 0x5EED5A17ULL);

  void add(double x);

  /// Folds `other` into this sampler: each kept slot is drawn from the two
  /// reservoirs with probability proportional to their stream counts.
  /// Deterministic in (this state, other state).
  void merge(const ReservoirSampler& other);

  /// Checkpoint-safe state round-trip. restore() throws
  /// std::invalid_argument on zero capacity, more kept items than capacity,
  /// fewer items than min(count, capacity), or an invalid Rng state.
  ReservoirSamplerState state() const noexcept {
    return {capacity_, count_, rng_.state(), items_};
  }
  void restore(const ReservoirSamplerState& state);

  std::size_t capacity() const noexcept { return capacity_; }
  /// Samples seen (the whole stream, not the kept subset).
  std::size_t count() const noexcept { return count_; }
  /// The kept sample, in retention order.
  std::span<const double> sample() const noexcept { return items_; }

  /// Linear-interpolated quantile of the kept sample, `p` in [0, 1];
  /// 0 before any sample.
  double quantile(double p) const;

 private:
  std::size_t capacity_;
  std::size_t count_ = 0;
  Rng rng_;
  std::vector<double> items_;
};

}  // namespace eacs
