#pragma once
// Deterministic pseudo-random number generation for reproducible simulations.
//
// All stochastic components in the library (trace generators, the simulated
// subjective study, the Monsoon measurement channel) draw from eacs::Rng so
// that a fixed seed reproduces an experiment bit-for-bit across runs and
// platforms. The engine is xoshiro256**, seeded via SplitMix64.

#include <array>
#include <cstdint>
#include <vector>

namespace eacs {

/// Complete engine state of an Rng, exposed for deterministic
/// checkpoint/resume (DESIGN §14): restoring a captured state reproduces the
/// remaining draw stream bit-for-bit. The fields are the raw xoshiro256**
/// words plus the Box-Muller carry.
struct RngState {
  std::array<std::uint64_t, 4> words{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;

  bool operator==(const RngState&) const = default;
};

/// Deterministic random number generator (xoshiro256** engine).
///
/// Not thread-safe; create one instance per logical stream.
class Rng {
 public:
  /// Seeds the engine deterministically from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0xEAC5'2019'0001ULL) noexcept;

  /// Next raw 64-bit output.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;

  /// The full engine state (checkpoint side); the state struct is the
  /// storage.
  const RngState& state() const noexcept { return s_; }

  /// Restores a previously captured state (resume side); throws
  /// std::invalid_argument on the all-zero word state, which xoshiro256**
  /// can never reach and never leave.
  void restore(const RngState& state);

  /// Shuffles a vector in place (Fisher-Yates).
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  RngState s_;
};

}  // namespace eacs
