// Pinned digests of the session engine's results and event timelines.
//
// Each run below writes every field of every PlaybackResult as a C99 hex
// float (%a: every bit of every double), then its full SessionTimeline CSV,
// and hashes the text with 64-bit FNV-1a. The hash must equal a constant
// recorded from the engine as it stands, so a refactor of the engine, its
// link models or its entry points (PlayerSimulator, MultiClientSimulator,
// SessionEngine on a cellular link) cannot move a single bit unnoticed.
// The runs cover the solo, link-fault, sensor-fault and hedged-CDN analytic
// paths, the stepped multi-client and multi-cell paths, and the stepped
// reference loop. A deliberate change to the engine's numbers must re-pin
// the constants and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/net/fault_injector.h"
#include "eacs/net/segment_source.h"
#include "eacs/player/multi_client.h"
#include "eacs/player/player.h"
#include "eacs/player/session_engine.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/trace/trace_io.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::make_step_session;

std::string hex(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// Every field of every result and task, then the timeline CSV.
std::string dump(const std::vector<PlaybackResult>& results,
                 const SessionTimeline& timeline) {
  std::ostringstream out;
  for (const PlaybackResult& r : results) {
    out << "result startup=" << hex(r.startup_delay_s)
        << " rebuffer=" << hex(r.total_rebuffer_s)
        << " rebuffer_events=" << r.rebuffer_events
        << " switches=" << r.switch_count << " end=" << hex(r.session_end_s)
        << " retries=" << r.total_retries
        << " abandoned=" << r.abandoned_segments
        << " wasted_mb=" << hex(r.total_wasted_mb)
        << " backoff=" << hex(r.total_backoff_s)
        << " hedges=" << r.total_hedges << " failovers=" << r.total_failovers
        << " breaker=" << r.breaker_transitions
        << " handoffs=" << r.cell_handoffs << "\n";
    for (const TaskRecord& t : r.tasks) {
      out << "task " << t.segment_index << " level=" << t.level
          << " bitrate=" << hex(t.bitrate_mbps) << " size=" << hex(t.size_mb)
          << " duration=" << hex(t.duration_s)
          << " dl_start=" << hex(t.download_start_s)
          << " dl_end=" << hex(t.download_end_s)
          << " tput=" << hex(t.throughput_mbps)
          << " signal=" << hex(t.signal_dbm) << " vib=" << hex(t.vibration)
          << " pvib=" << hex(t.perceived_vibration)
          << " buf=" << hex(t.buffer_before_s)
          << " stall=" << hex(t.rebuffer_s) << " startup=" << t.startup
          << " retries=" << t.retries << " abandoned=" << t.abandoned
          << " wasted_mb=" << hex(t.wasted_mb)
          << " wasted_s=" << hex(t.wasted_download_s)
          << " wasted_sig=" << hex(t.wasted_signal_dbm)
          << " backoff=" << hex(t.backoff_s) << " source=" << t.source
          << " hedges=" << t.hedges << "\n";
    }
  }
  timeline.write_csv(out);
  return out.str();
}

void expect_digest(const std::string& text, std::uint64_t pinned) {
  EXPECT_EQ(hex64(fnv1a(text)), hex64(pinned))
      << "engine digest moved; dump has " << text.size() << " bytes";
}

// A 90 s video whose link collapses from 12 to 1.5 Mbps at t = 24 s: the
// throughput rules are caught on a high rung with a thin buffer.
trace::SessionTraces collapsing_session() {
  return make_step_session(90.0, 12.0, 1.5, 24.0, -100.0, 2.0);
}

TEST(EngineDigestTest, PlayerSolo) {
  const auto manifest = make_manifest(90.0, 2.0);
  const auto session = collapsing_session();
  const PlayerSimulator simulator(manifest);
  abr::Festive policy;
  SessionTimeline timeline;
  const auto result = simulator.run(policy, session, &timeline);
  expect_digest(dump({result}, timeline), 0xf8b94e60e56ff929ULL);
}

TEST(EngineDigestTest, PlayerLinkFaults) {
  const auto manifest = make_manifest(90.0, 2.0);
  const auto session = collapsing_session();
  net::FaultSpec spec;
  spec.outages.push_back({40.0, 52.0});
  spec.outage_rate_per_min = 0.5;
  spec.failure_prob = 0.1;
  spec.signal_failure_per_db = 0.01;
  spec.stall_prob = 0.08;
  spec.seed = 17;
  const net::FaultInjector injector(session.throughput_mbps, spec,
                                    &session.signal_dbm);
  const PlayerSimulator simulator(manifest);
  // A fixed high rung keeps requesting big segments as the buffer thins.
  abr::FixedBitrate policy(11, "fixed11");
  SessionTimeline timeline;
  const auto result = simulator.run(policy, session, injector, &timeline);
  // The dump must exercise the retry ladder, the abandon step and backoff.
  EXPECT_GT(result.total_retries, 0U);
  EXPECT_GT(result.abandoned_segments, 0U);
  EXPECT_GT(timeline.count(SessionEventType::kBackoffExpiry), 0U);
  expect_digest(dump({result}, timeline), 0x81590ac89ec24f18ULL);
}

TEST(EngineDigestTest, PlayerSensorFaults) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -85.0, 3.0);
  sensors::SensorFaultSpec spec;
  spec.accel_episode_rate_per_min = 4.0;
  spec.signal_dropout_rate_per_min = 2.0;
  const sensors::SensorFaultInjector injector(
      session.accel, trace::signal_samples(session.signal_dbm), spec);
  const PlayerSimulator simulator(manifest);
  abr::Festive policy;
  SessionTimeline timeline;
  const auto result = simulator.run(policy, session, injector, &timeline);
  expect_digest(dump({result}, timeline), 0x4182800f777d892dULL);
}

TEST(EngineDigestTest, PlayerFaultyCdnWithHedging) {
  const auto manifest = make_manifest(90.0, 2.0);
  const auto session = collapsing_session();
  std::vector<net::SegmentSource> sources;
  for (std::size_t i = 0; i < 3; ++i) {
    net::CdnSourceConfig config;
    config.name = i == 0 ? "origin" : "edge-" + std::to_string(i);
    config.id = i;
    if (i == 0) {
      config.faults.outages = {{30.0, 70.0}};
      config.faults.error_prob = 0.05;
      config.faults.slow_start_prob = 0.1;
    } else {
      config.throughput_scale = 1.0 - 0.2 * static_cast<double>(i);
      config.base_rtt_s = 0.04 * static_cast<double>(i);
    }
    sources.emplace_back(session.throughput_mbps, config, &session.signal_dbm);
  }
  PlayerConfig config;
  config.resilience.hedge_enabled = true;
  const PlayerSimulator simulator(manifest, config);
  abr::FixedBitrate policy(11, "fixed11");
  SessionTimeline timeline;
  const auto result = simulator.run(
      policy, session, std::span<const net::SegmentSource>(sources), &timeline);
  EXPECT_GT(result.total_hedges, 0U);
  EXPECT_GT(result.total_retries, 0U);
  EXPECT_GT(result.abandoned_segments, 0U);
  expect_digest(dump({result}, timeline), 0x21ec77923ca3a02bULL);
}

TEST(EngineDigestTest, MultiClientStaggered) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto capacity_owner = make_session(60.0, 16.0);
  std::vector<trace::SessionTraces> sessions;
  for (std::size_t c = 0; c < 4; ++c) {
    sessions.push_back(make_session(60.0, 8.0,
                                    -88.0 - 5.0 * static_cast<double>(c),
                                    0.7 * static_cast<double>(c)));
  }
  abr::Bba bba(5.0, 30.0);
  abr::Festive festive;
  abr::FixedBitrate fixed(6, "fixed6");
  abr::Festive festive_late;
  AbrPolicy* policies[] = {&bba, &festive, &fixed, &festive_late};
  std::vector<ClientSetup> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.push_back({&manifest, policies[c], &sessions[c],
                       2.5 * static_cast<double>(c)});
  }
  const MultiClientSimulator simulator(capacity_owner.throughput_mbps);
  SessionTimeline timeline;
  const auto results = simulator.run(clients, &timeline);
  expect_digest(dump(results, timeline), 0xe310df046dcbcbb4ULL);
}

TEST(EngineDigestTest, ThreeCellsWithRoutes) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto cap_a = make_session(60.0, 10.0);
  const auto cap_b = make_step_session(60.0, 4.0, 20.0, 30.0);
  const auto cap_c = make_session(60.0, 2.5);
  const trace::TimeSeries* cells[] = {&cap_a.throughput_mbps,
                                      &cap_b.throughput_mbps,
                                      &cap_c.throughput_mbps};
  const CellularLinkModel link(cells);
  const auto session = make_session(60.0, 8.0, -95.0, 1.0);
  abr::Festive p0;
  abr::Bba p1(5.0, 30.0);
  abr::FixedBitrate p2(8, "fixed8");
  abr::Festive p3;
  abr::Bba p4(5.0, 30.0);
  AbrPolicy* policies[] = {&p0, &p1, &p2, &p3, &p4};
  const std::vector<std::vector<CellHop>> routes = {
      {{6.0, 1}, {21.0, 2}, {40.0, 0}},
      {{6.0, 0}},
      {},
      {{12.5, 2}, {12.5, 1}},
      {{3.0, 0}, {30.0, 2}}};
  std::vector<SessionClient> clients;
  for (std::size_t c = 0; c < 5; ++c) {
    SessionClient client{&manifest, policies[c], &session,
                         1.25 * static_cast<double>(c)};
    client.home_cell = c % 3;
    client.route = routes[c];
    clients.push_back(client);
  }
  const SessionEngine engine(SessionEngineConfig{});
  SessionTimeline timeline;
  const auto results = engine.run(clients, link, &timeline);
  std::size_t handoffs = 0;
  for (const auto& r : results) handoffs += r.cell_handoffs;
  EXPECT_GT(handoffs, 0U);
  expect_digest(dump(results, timeline), 0xc3f27b99a0eaf28fULL);
}

TEST(EngineDigestTest, OneCellSteppedReference) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto capacity_owner = make_step_session(60.0, 14.0, 5.0, 25.0);
  const trace::TimeSeries* cells[] = {&capacity_owner.throughput_mbps};
  const CellularLinkModel link(cells);
  const auto session_a = make_session(60.0, 8.0, -95.0, 2.0);
  const auto session_b = make_session(60.0, 8.0, -105.0, 0.5);
  const auto session_c = make_session(60.0, 8.0, -90.0, 4.0);
  abr::Bba policy_a(5.0, 30.0);
  abr::Festive policy_b;
  abr::FixedBitrate policy_c(4, "fixed4");
  const std::vector<SessionClient> clients = {
      {&manifest, &policy_a, &session_a, 0.0},
      {&manifest, &policy_b, &session_b, 4.0},
      {&manifest, &policy_c, &session_c, 9.0}};
  SessionEngineConfig config;
  config.reference_mode = true;
  const SessionEngine engine(config);
  SessionTimeline timeline;
  const auto results = engine.run(clients, link, &timeline);
  expect_digest(dump(results, timeline), 0x543ab1c32f635333ULL);
}

}  // namespace
}  // namespace eacs::player
