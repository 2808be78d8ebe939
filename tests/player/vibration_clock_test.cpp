// Property test for VibrationClock over a shared sensors::VibrationTrack.
//
// Clocks on one track search the track's running maximum of the timestamps
// from their cursor while they read behind its fill; only a clock past the
// fill walks the samples. Whatever the interleaving, each clock must return
// what a walk of its own would: the level after the first sample whose
// timestamp is not <= every time it was asked for so far, or the same
// NaN-stop throw.

#include "eacs/player/session_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "eacs/sensors/vibration.h"

namespace eacs::player {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPi = 3.14159265358979323846;

/// A vibrating 50 Hz stream whose timestamps carry duplicates, late
/// (decreasing) stamps, early spikes and -inf, with +inf and NaN stamps at
/// the given indices.
sensors::AccelTrace shaky_trace(std::uint64_t seed, std::size_t n,
                                const std::vector<std::size_t>& nan_at,
                                const std::vector<std::size_t>& inf_at) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-0.5, 0.5);
  std::uniform_real_distribution<double> shift(0.05, 4.0);
  std::uniform_int_distribution<int> kind(0, 24);
  sensors::AccelTrace trace;
  for (std::size_t k = 0; k < n; ++k) {
    const double t = 0.02 * static_cast<double>(k);
    sensors::AccelSample sample{
        t, noise(rng), noise(rng) + 3.0 * std::sin(2.0 * kPi * 4.0 * t),
        9.80665 + noise(rng)};
    switch (kind(rng)) {
      case 0:
        if (k > 0) sample.t_s = trace.back().t_s;  // duplicate
        break;
      case 1: sample.t_s = t - shift(rng); break;  // late
      case 2: sample.t_s = t + shift(rng); break;  // early spike
      case 3: sample.t_s = -kInf; break;
      default: break;
    }
    trace.push_back(sample);
  }
  for (const std::size_t k : nan_at) trace[k].t_s = kNan;
  for (const std::size_t k : inf_at) trace[k].t_s = kInf;
  return trace;
}

/// What a clock walking the timestamps from its own cursor returns: the
/// reference every shared clock must match.
struct ReferenceWalk {
  const sensors::AccelTrace* trace;
  std::size_t cursor = 0;

  /// The cursor after the walk, and the NaN-stop message ("" when none).
  std::string advance_to(double t_s) {
    while (cursor < trace->size() && (*trace)[cursor].t_s <= t_s) ++cursor;
    if (cursor < trace->size() && std::isnan((*trace)[cursor].t_s)) {
      return "VibrationClock: accel sample " + std::to_string(cursor) +
             " has a NaN timestamp";
    }
    return "";
  }
};

TEST(VibrationClockProperties, SharedTrackReadsMatchAReferenceWalk) {
  struct Case {
    std::uint64_t seed;
    std::size_t n;
    std::vector<std::size_t> nan_at;
    std::vector<std::size_t> inf_at;
  };
  const std::vector<Case> cases = {
      {11, 1500, {}, {}},
      {12, 1500, {1100}, {}},
      {13, 1200, {700, 701, 950}, {400}},
      {14, 300, {0}, {}},
      {15, 900, {}, {899}},
  };
  // A 7-sample window, so adjacent prefixes read different levels, and the
  // default 300-sample one.
  std::vector<sensors::VibrationConfig> configs(2);
  configs[0].window_s = 0.14;
  ASSERT_EQ(configs[0].window_samples(), 7U);

  std::size_t throws = 0;
  std::size_t searches_behind_fill = 0;
  for (const Case& c : cases) {
    const sensors::AccelTrace trace = shaky_trace(c.seed, c.n, c.nan_at, c.inf_at);
    const double end_s = 0.02 * static_cast<double>(c.n);
    for (const sensors::VibrationConfig& config : configs) {
      // The level after each prefix, from one estimator fed sample by sample.
      std::vector<double> expected(trace.size() + 1, 0.0);
      sensors::VibrationEstimator estimator(config);
      for (std::size_t k = 0; k < trace.size(); ++k) {
        expected[k + 1] = estimator.update(trace[k]);
      }

      sensors::VibrationTrack track(trace, config);
      constexpr std::size_t kClocks = 3;
      std::vector<VibrationClock> clocks(kClocks, VibrationClock(track));
      std::vector<ReferenceWalk> walks(kClocks, ReferenceWalk{&trace});
      std::vector<double> times(kClocks, -1.0);
      std::size_t filled = 0;  // the furthest prefix any reader has reached

      std::mt19937_64 rng(c.seed * 7919 + config.window_samples());
      std::uniform_int_distribution<std::size_t> reader(0, kClocks);
      std::uniform_int_distribution<int> move(0, 19);
      std::uniform_real_distribution<double> step(0.0, 1.5);
      std::uniform_real_distribution<double> back(0.0, 12.0);
      std::uniform_real_distribution<double> anywhere(-1.0, end_s + 2.0);
      std::uniform_int_distribution<std::size_t> sample(0, trace.size() - 1);
      std::uniform_int_distribution<std::size_t> prefix(0, trace.size());
      for (int q = 0; q < 3000; ++q) {
        const std::size_t r = reader(rng);
        if (r == kClocks) {
          // A direct read, which may fill past a NaN timestamp.
          const std::size_t k = prefix(rng);
          ASSERT_EQ(track.level_after(k), expected[k]) << "after " << k;
          filled = std::max(filled, k);
          continue;
        }
        double& t = times[r];
        const int m = move(rng);
        if (m < 9) {
          t += step(rng);  // forward, the engine's pattern
        } else if (m < 12) {
          t -= back(rng);  // backward
        } else if (m < 14) {
          // repeated
        } else if (m < 16) {
          t = anywhere(rng);
        } else if (m == 16) {
          t = trace[sample(rng)].t_s;  // on a stamp: duplicates, -inf, NaN
        } else if (m == 17) {
          t = -kInf;
        } else if (m == 18) {
          t = kInf;
        } else {
          t = kNan;
        }
        const std::size_t before = walks[r].cursor;
        const std::string stop = walks[r].advance_to(t);
        if (before < filled) ++searches_behind_fill;
        const std::string where = "case " + std::to_string(c.seed) +
                                  " window " + std::to_string(config.window_s) +
                                  " query " + std::to_string(q) + " clock " +
                                  std::to_string(r) + " t=" + std::to_string(t);
        if (stop.empty()) {
          const std::size_t k = walks[r].cursor;
          ASSERT_EQ(clocks[r].advance_to(t), expected[k]) << where << " k=" << k;
          ASSERT_EQ(clocks[r].level(), expected[k]) << where;
        } else {
          ++throws;
          try {
            clocks[r].advance_to(t);
            FAIL() << where << ": expected " << stop;
          } catch (const std::invalid_argument& error) {
            ASSERT_EQ(std::string(error.what()), stop) << where;
          }
        }
        filled = std::max(filled, walks[r].cursor);
      }
    }
  }
  // The interleavings reached both halves of the track and the NaN stop.
  EXPECT_GT(throws, 100U);
  EXPECT_GT(searches_behind_fill, 1000U);
}

}  // namespace
}  // namespace eacs::player
