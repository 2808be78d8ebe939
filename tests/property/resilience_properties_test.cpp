// Property suite for the fault-injection + retry machinery: determinism in
// (config, seed), bounded retries, monotone backoff, and guaranteed
// termination even under a total outage.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "eacs/abr/fixed.h"
#include "eacs/net/fault_injector.h"
#include "eacs/player/player.h"
#include "eacs/util/rng.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::run_with_link_faults;

net::FaultSpec random_spec(std::uint64_t seed) {
  eacs::Rng rng(seed);
  net::FaultSpec spec;
  spec.outage_rate_per_min = rng.uniform(0.2, 2.0);
  spec.outage_mean_s = rng.uniform(2.0, 10.0);
  spec.failure_prob = rng.uniform(0.0, 0.4);
  spec.stall_prob = rng.uniform(0.0, 0.15);
  spec.seed = seed;
  return spec;
}

class ResilienceProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResilienceProperties, IdenticalConfigAndSeedReproduceEverything) {
  const auto session = make_session(40.0, 10.0);
  const auto spec = random_spec(GetParam());

  // Same (trace, spec): identical outage schedules, bit-for-bit.
  const net::FaultInjector a(session.throughput_mbps, spec, &session.signal_dbm);
  const net::FaultInjector b(session.throughput_mbps, spec, &session.signal_dbm);
  ASSERT_EQ(a.outage_schedule().size(), b.outage_schedule().size());
  for (std::size_t i = 0; i < a.outage_schedule().size(); ++i) {
    EXPECT_EQ(a.outage_schedule()[i].start_s, b.outage_schedule()[i].start_s);
    EXPECT_EQ(a.outage_schedule()[i].end_s, b.outage_schedule()[i].end_s);
  }

  // Same (player, policy, session, injector): identical playback, bit-for-bit.
  const PlayerSimulator simulator(make_manifest(40.0, 2.0));
  abr::FixedBitrate policy_a(6, "Fixed6");
  abr::FixedBitrate policy_b(6, "Fixed6");
  const auto x = run_with_link_faults(simulator, policy_a, session, a);
  const auto y = run_with_link_faults(simulator, policy_b, session, b);

  ASSERT_EQ(x.tasks.size(), y.tasks.size());
  for (std::size_t i = 0; i < x.tasks.size(); ++i) {
    EXPECT_EQ(x.tasks[i].level, y.tasks[i].level);
    EXPECT_EQ(x.tasks[i].download_end_s, y.tasks[i].download_end_s);
    EXPECT_EQ(x.tasks[i].retries, y.tasks[i].retries);
    EXPECT_EQ(x.tasks[i].wasted_mb, y.tasks[i].wasted_mb);
    EXPECT_EQ(x.tasks[i].backoff_s, y.tasks[i].backoff_s);
    EXPECT_EQ(x.tasks[i].rebuffer_s, y.tasks[i].rebuffer_s);
  }
  EXPECT_EQ(x.session_end_s, y.session_end_s);
  EXPECT_EQ(x.total_rebuffer_s, y.total_rebuffer_s);
  EXPECT_EQ(x.total_wasted_mb, y.total_wasted_mb);
  EXPECT_EQ(x.total_backoff_s, y.total_backoff_s);
}

TEST_P(ResilienceProperties, RetriesAreBoundedByMaxRetries) {
  const auto session = make_session(40.0, 8.0);
  const auto spec = random_spec(GetParam() ^ 0xBEEF);
  const net::FaultInjector faults(session.throughput_mbps, spec, &session.signal_dbm);

  const PlayerSimulator simulator(make_manifest(40.0, 2.0));
  abr::FixedBitrate policy(9, "Fixed9");
  const auto result = run_with_link_faults(simulator, policy, session, faults);

  ASSERT_EQ(result.tasks.size(), simulator.manifest().num_segments());
  std::size_t sum = 0;
  for (const auto& task : result.tasks) {
    EXPECT_LE(task.retries, kMaxRetries);
    sum += task.retries;
  }
  EXPECT_EQ(sum, result.total_retries);
}

TEST_P(ResilienceProperties, BackoffIsMonotoneAndBounded) {
  // Every wait stays within [base, base * (1 + jitter)] of its attempt's
  // deterministic base min(kBackoffBaseS * kBackoffFactor^a, kBackoffMaxS),
  // and is itself deterministic in the seed. While the base still grows,
  // the factor outgrows the jitter, so the waits rise with the attempt.
  double prev_base = 0.0;
  double prev = 0.0;
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    const double base = std::min(
        kBackoffBaseS * std::pow(kBackoffFactor, static_cast<double>(attempt)),
        kBackoffMaxS);
    const double wait = retry_backoff_s(GetParam(), 3, attempt);
    EXPECT_GE(wait, base);
    EXPECT_LE(wait, base * (1.0 + kBackoffJitter));
    EXPECT_EQ(wait, retry_backoff_s(GetParam(), 3, attempt));
    if (base > prev_base) {
      EXPECT_GT(wait, prev) << "attempt " << attempt;
    }
    prev_base = base;
    prev = wait;
  }
}

TEST_P(ResilienceProperties, BackoffPastTheCapIsFourToFiveSeconds) {
  // The engine backs off only before attempts 0-3 (bases 0.25-2 s), so the
  // 4 s cap binds only here: far past it the wait is the capped base times
  // a jitter below 1.25.
  for (const std::size_t segment : {0UL, 3UL, 11UL}) {
    const double wait = retry_backoff_s(GetParam(), segment, 10);
    EXPECT_GE(wait, 4.0);
    EXPECT_LT(wait, 5.0);
  }
}

TEST_P(ResilienceProperties, BackoffIsAPureFunctionOfSeedSegmentAttempt) {
  // The schedule must depend on nothing but (seed, segment, attempt): no
  // hidden state, no call-order sensitivity. Build a reference table, then
  // re-query in reverse order, interleaved with decoy lookups — every value
  // bit-identical.
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kSegments = 7;
  constexpr std::size_t kAttempts = 6;
  double reference[kSegments][kAttempts];
  for (std::size_t s = 0; s < kSegments; ++s) {
    for (std::size_t a = 0; a < kAttempts; ++a) {
      reference[s][a] = retry_backoff_s(seed, s, a);
    }
  }
  for (std::size_t s = kSegments; s-- > 0;) {
    for (std::size_t a = kAttempts; a-- > 0;) {
      (void)retry_backoff_s(seed ^ 0xDEC0'11DEULL, a, s);  // decoy
      EXPECT_EQ(retry_backoff_s(seed, s, a), reference[s][a]);
    }
  }
  // The jitter really keys on its inputs: a different seed or segment index
  // must perturb at least one entry of the table.
  bool seed_matters = false;
  bool segment_matters = false;
  for (std::size_t a = 0; a < kAttempts; ++a) {
    if (retry_backoff_s(seed ^ 1, 0, a) != reference[0][a]) {
      seed_matters = true;
    }
    if (retry_backoff_s(seed, kSegments, a) != reference[0][a]) {
      segment_matters = true;
    }
  }
  EXPECT_TRUE(seed_matters);
  EXPECT_TRUE(segment_matters);
}

TEST_P(ResilienceProperties, BackoffScheduleIdenticalAcrossThreadCounts) {
  // Concurrent evaluation is how the parallel sweeps consume the schedule:
  // whatever the thread count or interleaving, every (segment, attempt)
  // lookup lands on the serial value bit-for-bit.
  const std::uint64_t seed = GetParam() ^ 0x7EA2'F00DULL;
  constexpr std::size_t kSegments = 32;
  constexpr std::size_t kAttempts = 5;
  std::vector<double> serial(kSegments * kAttempts);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    serial[i] = retry_backoff_s(seed, i / kAttempts, i % kAttempts);
  }
  for (const std::size_t jobs : {2U, 8U}) {
    std::vector<double> parallel(serial.size());
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = w; i < parallel.size(); i += jobs) {
          parallel[i] = retry_backoff_s(seed, i / kAttempts, i % kAttempts);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " item " << i;
    }
  }
}

TEST_P(ResilienceProperties, BackoffNeverExceedsTheJitteredCap) {
  // The cap holds for any attempt index, including ones far beyond
  // kMaxRetries where factor^attempt is astronomically large.
  const double cap = kBackoffMaxS * (1.0 + kBackoffJitter);
  for (const std::size_t attempt : {0UL, 1UL, 5UL, 17UL, 60UL, 200UL}) {
    const double wait = retry_backoff_s(GetParam(), 11, attempt);
    EXPECT_TRUE(std::isfinite(wait));
    EXPECT_GT(wait, 0.0);
    EXPECT_LE(wait, cap);
  }
}

TEST_P(ResilienceProperties, TotalOutageStillTerminatesWithFiniteAccounting) {
  // The entire session (trace + margin) sits inside one outage window: every
  // regular attempt times out and even the rescue fetch crawls on a dead
  // link. The session must still terminate with finite accounting.
  const auto session = make_session(8.0, 10.0, -90.0, 0.0, 60.0);
  net::FaultSpec spec;
  spec.outages = {{0.0, 1e6}};
  spec.seed = GetParam();
  const net::FaultInjector faults(session.throughput_mbps, spec);

  const PlayerSimulator simulator(make_manifest(8.0, 2.0));
  abr::FixedBitrate policy(4, "Fixed4");
  const auto result = run_with_link_faults(simulator, policy, session, faults);

  ASSERT_EQ(result.tasks.size(), simulator.manifest().num_segments());
  // The first segment starts inside the dead window: it must burn all its
  // retries and fall back to the lowest-rung rescue fetch. (The rescue drags
  // the wall clock to the window's far edge, so later segments may see a
  // healthy link again — the property is termination, not uniform misery.)
  EXPECT_EQ(result.tasks.front().retries, kMaxRetries);
  EXPECT_EQ(result.tasks.front().level,
            simulator.manifest().ladder().lowest_level());
  for (const auto& task : result.tasks) {
    EXPECT_LE(task.retries, kMaxRetries);
  }
  EXPECT_TRUE(std::isfinite(result.session_end_s));
  EXPECT_TRUE(std::isfinite(result.total_rebuffer_s));
  EXPECT_GE(result.total_rebuffer_s, 0.0);
  EXPECT_TRUE(std::isfinite(result.total_backoff_s));
  EXPECT_GE(result.total_retries, kMaxRetries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilienceProperties,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 17ULL, 99ULL,
                                           0xFA01'7EC7ULL));

}  // namespace
}  // namespace eacs::player
