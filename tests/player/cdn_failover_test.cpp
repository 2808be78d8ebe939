// Engine-level tests for the multi-source CDN delivery path: the certified
// single-trivial-source no-op, failover away from a dead origin, hedged-race
// event pairing, determinism, and the invariant checker across the full
// cdn-fault x hedge x source-count matrix.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "eacs/abr/bba.h"
#include "eacs/net/segment_source.h"
#include "eacs/player/player.h"
#include "eacs/player/session_engine.h"
#include "eacs/player/session_invariants.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;

// Origin spends [20, 70) dead — long enough to burn a retry ladder and force
// the machinery to either fail over or rebuffer through it.
net::CdnFaultSpec outage_spec() {
  net::CdnFaultSpec spec;
  spec.outages = {{20.0, 70.0}};
  return spec;
}

std::vector<net::SegmentSource> make_sources(
    const trace::SessionTraces& session, std::size_t count,
    const net::CdnFaultSpec& origin_faults) {
  std::vector<net::SegmentSource> sources;
  sources.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::CdnSourceConfig config;
    config.name = i == 0 ? "origin" : "edge-" + std::to_string(i);
    config.id = i;
    if (i == 0) {
      config.faults = origin_faults;
    } else {
      // Edges trade a little capacity and RTT for a clean fault record.
      config.throughput_scale = 1.0 - 0.15 * static_cast<double>(i);
      config.base_rtt_s = 0.03 * static_cast<double>(i);
    }
    sources.emplace_back(session.throughput_mbps, config, &session.signal_dbm);
  }
  return sources;
}

void expect_results_bit_identical(const PlaybackResult& a,
                                  const PlaybackResult& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].level, b.tasks[i].level) << "task " << i;
    EXPECT_EQ(a.tasks[i].download_start_s, b.tasks[i].download_start_s);
    EXPECT_EQ(a.tasks[i].download_end_s, b.tasks[i].download_end_s);
    EXPECT_EQ(a.tasks[i].throughput_mbps, b.tasks[i].throughput_mbps);
    EXPECT_EQ(a.tasks[i].rebuffer_s, b.tasks[i].rebuffer_s);
    EXPECT_EQ(a.tasks[i].retries, b.tasks[i].retries);
    EXPECT_EQ(a.tasks[i].wasted_mb, b.tasks[i].wasted_mb);
    EXPECT_EQ(a.tasks[i].wasted_download_s, b.tasks[i].wasted_download_s);
    EXPECT_EQ(a.tasks[i].backoff_s, b.tasks[i].backoff_s);
    EXPECT_EQ(a.tasks[i].source, b.tasks[i].source);
    EXPECT_EQ(a.tasks[i].hedges, b.tasks[i].hedges);
  }
  EXPECT_EQ(a.startup_delay_s, b.startup_delay_s);
  EXPECT_EQ(a.total_rebuffer_s, b.total_rebuffer_s);
  EXPECT_EQ(a.session_end_s, b.session_end_s);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_wasted_mb, b.total_wasted_mb);
  EXPECT_EQ(a.total_backoff_s, b.total_backoff_s);
  EXPECT_EQ(a.total_hedges, b.total_hedges);
  EXPECT_EQ(a.total_failovers, b.total_failovers);
  EXPECT_EQ(a.breaker_transitions, b.breaker_transitions);
}

TEST(CdnFailoverTest, SingleTrivialSourceIsBitIdenticalToPlainRun) {
  // The certified no-op: one source with default faults, scale 1, RTT 0 must
  // reproduce the fault-free overload bit-for-bit, field by field.
  const auto session = make_session(60.0, 10.0);
  const PlayerSimulator simulator(make_manifest(60.0, 2.0));

  abr::Bba plain_policy(5.0, simulator.config().buffer_threshold_s);
  SessionTimeline plain_timeline;
  const auto plain = simulator.run(plain_policy, session, &plain_timeline);

  std::vector<net::SegmentSource> sources;
  sources.emplace_back(session.throughput_mbps, net::CdnSourceConfig{},
                       &session.signal_dbm);
  ASSERT_TRUE(sources.front().trivial());
  abr::Bba cdn_policy(5.0, simulator.config().buffer_threshold_s);
  SessionTimeline cdn_timeline;
  const auto cdn = simulator.run(
      cdn_policy, session, std::span<const net::SegmentSource>(sources),
      &cdn_timeline);

  expect_results_bit_identical(plain, cdn);
  // The link, not PlayerSimulator, carries the no-op: the event streams
  // match too.
  std::ostringstream plain_csv;
  std::ostringstream cdn_csv;
  plain_timeline.write_csv(plain_csv);
  cdn_timeline.write_csv(cdn_csv);
  EXPECT_EQ(plain_csv.str(), cdn_csv.str());
  // CDN counters specifically must stay untouched on the no-op path.
  EXPECT_EQ(cdn.total_hedges, 0U);
  EXPECT_EQ(cdn.total_failovers, 0U);
  EXPECT_EQ(cdn.breaker_transitions, 0U);
  for (const auto& task : cdn.tasks) {
    EXPECT_EQ(task.source, 0U);
    EXPECT_EQ(task.hedges, 0U);
  }
}

TEST(CdnFailoverTest, OriginOutageFailsOverAndBeatsRetryOnly) {
  // The headline robustness claim: with a second source available the engine
  // must switch primaries during the origin outage and strictly beat the
  // single-source retry-only run on rebuffering.
  const auto session = make_session(120.0, 8.0);
  const PlayerSimulator simulator(make_manifest(120.0, 2.0));

  const auto solo_sources = make_sources(session, 1, outage_spec());
  abr::Bba solo_policy(5.0, simulator.config().buffer_threshold_s);
  const auto solo = simulator.run(
      solo_policy, session, std::span<const net::SegmentSource>(solo_sources));

  const auto duo_sources = make_sources(session, 2, outage_spec());
  SessionTimeline timeline;
  abr::Bba duo_policy(5.0, simulator.config().buffer_threshold_s);
  const auto duo =
      simulator.run(duo_policy, session,
                    std::span<const net::SegmentSource>(duo_sources), &timeline);

  // The 50 s outage forces the solo run through deadline-abort ladders.
  EXPECT_GT(solo.total_rebuffer_s, 1.0);
  EXPECT_GE(solo.total_retries, 1U);

  // The duo run escapes to the edge: strictly less rebuffering, at least one
  // primary switch, and some segment actually served by source 1.
  EXPECT_LT(duo.total_rebuffer_s, solo.total_rebuffer_s);
  EXPECT_GE(duo.total_failovers, 1U);
  EXPECT_EQ(timeline.count(SessionEventType::kSourceFailover),
            duo.total_failovers);
  bool edge_served = false;
  for (const auto& task : duo.tasks) {
    edge_served = edge_served || task.source == 1;
  }
  EXPECT_TRUE(edge_served);
}

TEST(CdnFailoverTest, HedgedRaceEmitsPairedEvents) {
  // Every hedge issuance resolves: kHedgeIssued and kHedgeComplete pair up
  // and both match the result's total, with the loser's cost priced through
  // the wasted-bytes accounting (finite, never negative).
  const auto session = make_session(120.0, 8.0);
  const PlayerSimulator simulator(make_manifest(120.0, 2.0));

  const auto sources = make_sources(session, 2, outage_spec());
  SessionTimeline timeline;
  abr::Bba policy(5.0, simulator.config().buffer_threshold_s);
  const auto result = simulator.run(
      policy, session, std::span<const net::SegmentSource>(sources), &timeline);

  EXPECT_GE(result.total_hedges, 1U);
  EXPECT_EQ(timeline.count(SessionEventType::kHedgeIssued), result.total_hedges);
  EXPECT_EQ(timeline.count(SessionEventType::kHedgeComplete),
            result.total_hedges);
  std::size_t task_hedges = 0;
  for (const auto& task : result.tasks) {
    task_hedges += task.hedges;
    EXPECT_TRUE(std::isfinite(task.wasted_mb));
    EXPECT_GE(task.wasted_mb, 0.0);
    EXPECT_TRUE(std::isfinite(task.wasted_download_s));
    EXPECT_GE(task.wasted_download_s, 0.0);
  }
  EXPECT_EQ(task_hedges, result.total_hedges);
}

TEST(CdnFailoverTest, DisablingHedgesSuppressesThemEntirely) {
  const auto session = make_session(120.0, 8.0);
  PlayerConfig config;
  config.hedge_enabled = false;
  const PlayerSimulator simulator(make_manifest(120.0, 2.0), config);

  // Without hedge-loser feedback the breaker only sees deadline aborts, one
  // per kAttemptDeadlineS — the outage must outlast four of them to trip
  // the breaker's kMinSamples and force a retry-only failover.
  net::CdnFaultSpec long_outage;
  long_outage.outages = {{20.0, 110.0}};
  const auto sources = make_sources(session, 2, long_outage);
  SessionTimeline timeline;
  abr::Bba policy(5.0, config.buffer_threshold_s);
  const auto result = simulator.run(
      policy, session, std::span<const net::SegmentSource>(sources), &timeline);

  EXPECT_EQ(result.total_hedges, 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kHedgeIssued), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kHedgeComplete), 0U);
  // Failover (breaker-driven primary switching) still works without hedging.
  EXPECT_GE(result.total_failovers, 1U);
  EXPECT_TRUE(std::isfinite(result.total_rebuffer_s));
}

TEST(CdnFailoverTest, RepeatedRunsAreBitIdentical) {
  const auto session = make_session(120.0, 8.0);
  const PlayerSimulator simulator(make_manifest(120.0, 2.0));
  const auto sources = make_sources(session, 3, outage_spec());

  abr::Bba policy_a(5.0, simulator.config().buffer_threshold_s);
  const auto a = simulator.run(policy_a, session,
                               std::span<const net::SegmentSource>(sources));
  abr::Bba policy_b(5.0, simulator.config().buffer_threshold_s);
  const auto b = simulator.run(policy_b, session,
                               std::span<const net::SegmentSource>(sources));
  expect_results_bit_identical(a, b);
}

TEST(CdnFailoverTest, EmptySourceSpanThrows) {
  const auto session = make_session(20.0, 8.0);
  const PlayerSimulator simulator(make_manifest(20.0, 2.0));
  abr::Bba policy(5.0, simulator.config().buffer_threshold_s);
  EXPECT_THROW(simulator.run(policy, session,
                             std::span<const net::SegmentSource>{}),
               std::invalid_argument);
}

TEST(CdnFailoverTest, InvariantsHoldAcrossFaultHedgeMatrix) {
  // Satellite: the SessionInvariantChecker and the task-level result checks
  // must stay clean across every fault family x hedge setting x source
  // count. Each cell also exercises the breaker-event bookkeeping: timeline
  // breaker transitions match the result counter.
  const auto session = make_session(90.0, 8.0);

  std::vector<std::pair<const char*, net::CdnFaultSpec>> families;
  families.emplace_back("outage", outage_spec());
  {
    net::CdnFaultSpec spec;
    spec.error_rate_per_min = 3.0;
    spec.error_episode_mean_s = 12.0;
    families.emplace_back("error_bursts", spec);
  }
  {
    net::CdnFaultSpec spec;
    spec.truncate_prob = 0.25;
    spec.corrupt_prob = 0.15;
    families.emplace_back("payload", spec);
  }
  {
    net::CdnFaultSpec spec;
    spec.slow_start_prob = 0.6;
    spec.slow_scale = 0.2;
    families.emplace_back("slow_start", spec);
  }
  {
    net::CdnFaultSpec spec = outage_spec();
    spec.error_prob = 0.1;
    spec.truncate_prob = 0.1;
    spec.slow_start_prob = 0.3;
    families.emplace_back("combined", spec);
  }

  for (const auto& [name, spec] : families) {
    for (const bool hedge : {true, false}) {
      for (const std::size_t count : {1U, 2U, 3U}) {
        SCOPED_TRACE(::testing::Message()
                     << name << " hedge=" << hedge << " sources=" << count);
        PlayerConfig config;
        config.hedge_enabled = hedge;
        const PlayerSimulator simulator(make_manifest(90.0, 2.0), config);
        const auto sources = make_sources(session, count, spec);

        SessionInvariantChecker checker(config,
                                        simulator.manifest().ladder().size());
        SessionTimeline timeline;
        struct Fanout final : SessionObserver {
          SessionObserver* a = nullptr;
          SessionObserver* b = nullptr;
          void on_event(const SessionEvent& event) override {
            a->on_event(event);
            b->on_event(event);
          }
        } fanout;
        fanout.a = &checker;
        fanout.b = &timeline;

        abr::Bba policy(5.0, config.buffer_threshold_s);
        const auto result = simulator.run(
            policy, session, std::span<const net::SegmentSource>(sources),
            &fanout);

        EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                          ? ""
                                          : checker.violations().front());
        const auto task_violations = SessionInvariantChecker::check_result(
            result, simulator.manifest().ladder().size());
        EXPECT_TRUE(task_violations.empty())
            << (task_violations.empty() ? "" : task_violations.front());

        EXPECT_EQ(timeline.count(SessionEventType::kBreakerTransition),
                  result.breaker_transitions);
        if (!hedge || count == 1) {
          EXPECT_EQ(result.total_hedges, 0U);
        }
        if (count == 1) {
          EXPECT_EQ(result.total_failovers, 0U);
        }
        EXPECT_TRUE(std::isfinite(result.total_wasted_mb));
        EXPECT_GE(result.total_wasted_mb, 0.0);
        EXPECT_TRUE(std::isfinite(result.session_end_s));
      }
    }
  }
}

TEST(CdnFailoverTest, EventIdentifiersAreStable) {
  EXPECT_STREQ(to_string(SessionEventType::kSourceFailover), "source_failover");
  EXPECT_STREQ(to_string(SessionEventType::kHedgeIssued), "hedge_issued");
  EXPECT_STREQ(to_string(SessionEventType::kHedgeComplete), "hedge_complete");
  EXPECT_STREQ(to_string(SessionEventType::kBreakerTransition),
               "breaker_transition");
}

}  // namespace
}  // namespace eacs::player
