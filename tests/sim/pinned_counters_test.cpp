// Exact fleet counters: the machine-independent evidence for the paper's
// Section IV claims at fleet scale. run_fleet is deterministic in its config
// and bit-identical at any job count, so every value below is exact and the
// same on every machine. A change to the fleet model (arrivals, throttle
// wakeups, request/complete pairing, the decision cache's keys or
// quantization grid, the planner's work accounting) moves them, and re-pins
// them here in one reviewed diff.
//
// The configs copy bench_fleet_scale and bench_fleet_planner, which print
// the same counters beside their timings. One TEST per fleet size, so ctest
// spreads them across cores.

#include <gtest/gtest.h>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/sim/fleet.h"

namespace eacs::sim {
namespace {

/// bench_fleet_scale's fleet: the defaults (16 cells, 8 regions,
/// 4 arrivals/s, 30 segments) at `sessions` sessions.
FleetMetrics run_scale_fleet(std::size_t sessions) {
  FleetConfig config;
  config.num_sessions = sessions;
  config.exec = ExecutionPolicy::hardware();
  return run_fleet(config);
}

/// Every session issues exactly one request per segment, and the event
/// count (arrivals, request wakeups, completions) is pinned.
FleetMetrics expect_scale_counters(std::size_t sessions, std::size_t events) {
  const FleetMetrics metrics = run_scale_fleet(sessions);
  EXPECT_EQ(metrics.requests, sessions * FleetConfig{}.segments_per_session);
  EXPECT_EQ(metrics.events, events);
  return metrics;
}

TEST(PinnedFleetScale, Sessions1k) { expect_scale_counters(1000, 67498); }

TEST(PinnedFleetScale, Sessions10k) { expect_scale_counters(10000, 672140); }

TEST(PinnedFleetScale, Sessions100k) {
  const FleetMetrics big = expect_scale_counters(100000, 6717766);
  // The live set, not the session count, bounds the state: at a constant
  // arrival rate the peak live set stays flat from 1k to 100k sessions
  // (Little's law, DESIGN §12).
  EXPECT_LE(big.peak_live_sessions,
            2 * run_scale_fleet(1000).peak_live_sessions);
}

/// bench_fleet_planner's 1k fleet: the Eq. 11 planner on every client over
/// the 14-rung evaluation ladder and 60-segment sessions.
FleetConfig planner_fleet(std::size_t cache_capacity) {
  FleetConfig config;
  config.num_sessions = 1000;
  config.segments_per_session = 60;
  const auto ladder = media::BitrateLadder::evaluation14();
  config.ladder_mbps.clear();
  for (std::size_t l = 0; l < ladder.size(); ++l) {
    config.ladder_mbps.push_back(ladder.bitrate(l));
  }
  config.policy = FleetPolicy::kPlanner;
  config.planner_cache.capacity = cache_capacity;
  config.exec = ExecutionPolicy::hardware();
  return config;
}

TEST(PinnedFleetPlanner, DecisionCache1k) {
  const FleetMetrics cached =
      run_fleet(planner_fleet(FleetConfig{}.planner_cache.capacity));
  const core::CostStats& planner = cached.planner;
  EXPECT_EQ(cached.sessions, 1000U);
  EXPECT_EQ(cached.requests, 60000U);
  // One startup request per session bypasses the cache; every other request
  // is exactly one hit or one miss.
  EXPECT_EQ(planner.cache_hits, 51369U);
  EXPECT_EQ(planner.cache_misses, 7631U);
  EXPECT_EQ(planner.cache_evictions, 38U);
  // Every miss is one horizon plan, and each plan prices its window with
  // cost tables of 2M+1 model evaluations per task (M = 14 rungs).
  EXPECT_EQ(planner.plans, planner.cache_misses);
  EXPECT_EQ(planner.model_evals(), 1106495U);

  // Capacity 0: the same quantized decisions, solved per request.
  const FleetMetrics naive = run_fleet(planner_fleet(0));
  EXPECT_EQ(naive.planner.model_evals(), 8555U * naive.sessions);
  EXPECT_GT(naive.planner.model_evals(), 7 * planner.model_evals());
}

}  // namespace
}  // namespace eacs::sim
