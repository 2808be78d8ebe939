#include "eacs/util/rng.h"

#include <cmath>
#include <stdexcept>

namespace eacs {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) noexcept {
  return (v << k) | (v >> (64 - k));
}

constexpr double kPi = 3.14159265358979323846;

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : s_.words) word = splitmix64(s);
  // xoshiro must not start from the all-zero state.
  if (s_.words == std::array<std::uint64_t, 4>{}) {
    s_.words[0] = 0x1ULL;
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_.words[1] * 5, 7) * 9;
  const std::uint64_t t = s_.words[1] << 17;
  s_.words[2] ^= s_.words[0];
  s_.words[3] ^= s_.words[1];
  s_.words[1] ^= s_.words[2];
  s_.words[0] ^= s_.words[3];
  s_.words[2] ^= t;
  s_.words[3] = rotl(s_.words[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return lo + static_cast<std::int64_t>(next_u64());
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t draw = next_u64();
  while (draw >= limit) draw = next_u64();
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() noexcept {
  if (s_.has_cached_normal) {
    s_.has_cached_normal = false;
    return s_.cached_normal;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  s_.cached_normal = radius * std::sin(2.0 * kPi * u2);
  s_.has_cached_normal = true;
  return radius * std::cos(2.0 * kPi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

void Rng::restore(const RngState& state) {
  if (state.words[0] == 0 && state.words[1] == 0 && state.words[2] == 0 &&
      state.words[3] == 0) {
    throw std::invalid_argument("Rng::restore: all-zero xoshiro state");
  }
  s_ = state;
}

}  // namespace eacs
