#include "eacs/player/session_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/net/fault_injector.h"
#include "eacs/player/multi_client.h"
#include "eacs/player/player.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;

net::FaultSpec outage_spec() {
  net::FaultSpec spec;
  spec.outages.push_back({20.0, 40.0});
  return spec;
}

/// First index of an event of `type`, or npos.
std::size_t first_index(const SessionTimeline& timeline, SessionEventType type) {
  const auto& events = timeline.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == type) return i;
  }
  return kNoIndex;
}

TEST(SessionEngineTest, ConfigValidation) {
  SessionEngineConfig bad;
  bad.player.buffer_threshold_s = 0.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  bad = SessionEngineConfig{};
  bad.player.startup_buffer_s = bad.player.buffer_threshold_s + 1.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  bad = SessionEngineConfig{};
  bad.step_s = 0.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  EXPECT_NO_THROW(SessionEngine{SessionEngineConfig{}});
}

TEST(SessionEngineTest, AnalyticLinksTakeExactlyOneClient) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  abr::FixedBitrate a(3, "A");
  abr::FixedBitrate b(3, "B");
  const SoloLinkModel link(session.throughput_mbps);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> two = {{&manifest, &a, &session, 0.0},
                                    {&manifest, &b, &session, 0.0}};
  EXPECT_THROW(engine.run(two, link), std::invalid_argument);
  std::vector<SessionClient> null_client = {{nullptr, &a, &session, 0.0}};
  EXPECT_THROW(engine.run(null_client, link), std::invalid_argument);
}

TEST(SessionEngineTest, WrongModeLinkCallsThrow) {
  // Each link type serves one engine mode, so a wrong-mode call no longer
  // compiles; what remains to check at run time is the stepped link's trace.
  EXPECT_THROW(CellularLinkModel{trace::TimeSeries{}}, std::invalid_argument);
}

TEST(SessionEngineTest, ObserverNeverPerturbsTheResult) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0);
  const PlayerSimulator simulator(manifest);

  abr::Festive bare_policy;
  const auto bare = simulator.run(bare_policy, session);

  abr::Festive observed_policy;
  SessionTimeline timeline;
  const auto observed = simulator.run(observed_policy, session, &timeline);

  ASSERT_EQ(bare.tasks.size(), observed.tasks.size());
  EXPECT_EQ(bare.startup_delay_s, observed.startup_delay_s);
  EXPECT_EQ(bare.total_rebuffer_s, observed.total_rebuffer_s);
  EXPECT_EQ(bare.session_end_s, observed.session_end_s);
  EXPECT_EQ(bare.switch_count, observed.switch_count);
  for (std::size_t i = 0; i < bare.tasks.size(); ++i) {
    EXPECT_EQ(bare.tasks[i].level, observed.tasks[i].level);
    EXPECT_EQ(bare.tasks[i].download_end_s, observed.tasks[i].download_end_s);
    EXPECT_EQ(bare.tasks[i].throughput_mbps, observed.tasks[i].throughput_mbps);
  }
  EXPECT_FALSE(timeline.events().empty());
}

TEST(SessionEngineTest, FaultFreeEventOrdering) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0);
  const PlayerSimulator simulator(manifest);
  abr::Bba policy(5.0, 30.0);
  SessionTimeline timeline;
  const auto result = simulator.run(policy, session, &timeline);

  const auto& events = timeline.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, SessionEventType::kSessionStart);
  EXPECT_EQ(events.back().type, SessionEventType::kSessionEnd);

  // No drain (or stall) event before startup: playback cannot consume the
  // buffer before it begins.
  const std::size_t startup = first_index(timeline, SessionEventType::kStartup);
  ASSERT_NE(startup, kNoIndex);
  const std::size_t first_drain =
      first_index(timeline, SessionEventType::kBufferDrain);
  if (first_drain != kNoIndex) {
    EXPECT_GT(first_drain, startup);
  }
  const std::size_t first_stall = first_index(timeline, SessionEventType::kStall);
  if (first_stall != kNoIndex) {
    EXPECT_GT(first_stall, startup);
  }

  // Deadline / failure / backoff / fault events exist only on fault runs.
  EXPECT_EQ(timeline.count(SessionEventType::kAttemptDeadline), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kAttemptFailure), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kBackoffExpiry), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kFaultTransition), 0U);

  // One request and one completion per segment.
  EXPECT_EQ(timeline.count(SessionEventType::kRequestIssued),
            manifest.num_segments());
  EXPECT_EQ(timeline.count(SessionEventType::kDownloadComplete),
            manifest.num_segments());
  EXPECT_EQ(result.tasks.size(), manifest.num_segments());
}

TEST(SessionEngineTest, FaultRunEmitsDeadlineAndTransitionEvents) {
  const auto manifest = make_manifest(120.0, 2.0);
  const auto session = make_session(120.0, 8.0);
  const PlayerSimulator simulator(manifest);
  net::FaultInjector faults(session.throughput_mbps, outage_spec(),
                            &session.signal_dbm);
  abr::FixedBitrate policy(7, "Mid");
  SessionTimeline timeline;
  const auto result = simulator.run(policy, session, faults, &timeline);

  // A 20 s outage against a 15 s deadline must produce deadline aborts,
  // retries with backoff, and two fault transitions (enter + leave).
  EXPECT_GT(result.total_retries, 0U);
  EXPECT_GT(timeline.count(SessionEventType::kAttemptDeadline), 0U);
  EXPECT_GT(timeline.count(SessionEventType::kBackoffExpiry), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kFaultTransition), 2U);

  // Transitions carry the outage boundaries and enter/leave markers.
  double enter = -1.0;
  double leave = -1.0;
  for (const auto& event : timeline.events()) {
    if (event.type != SessionEventType::kFaultTransition) continue;
    if (event.value > 0.5) {
      enter = event.t_s;
    } else {
      leave = event.t_s;
    }
  }
  EXPECT_DOUBLE_EQ(enter, 20.0);
  EXPECT_DOUBLE_EQ(leave, 40.0);

  // Every deadline event lands exactly attempt_deadline_s after its request.
  const double deadline_s = simulator.config().resilience.attempt_deadline_s;
  const auto& events = timeline.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != SessionEventType::kAttemptDeadline) continue;
    // Find the matching request (same segment + attempt, most recent).
    double request_t = -1.0;
    for (std::size_t j = 0; j < i; ++j) {
      if (events[j].type == SessionEventType::kRequestIssued &&
          events[j].segment == events[i].segment &&
          events[j].attempt == events[i].attempt) {
        request_t = events[j].t_s;
      }
    }
    ASSERT_GE(request_t, 0.0);
    EXPECT_NEAR(events[i].t_s - request_t, deadline_s, 1e-9);
  }
}

TEST(SessionEngineTest, InactiveInjectorMatchesFaultFreeBitForBit) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 10.0);
  const PlayerSimulator simulator(manifest);
  net::FaultInjector inactive(session.throughput_mbps, net::FaultSpec{});

  abr::Festive a;
  abr::Festive b;
  const auto plain = simulator.run(a, session);
  const auto injected = simulator.run(b, session, inactive);
  ASSERT_EQ(plain.tasks.size(), injected.tasks.size());
  EXPECT_EQ(plain.session_end_s, injected.session_end_s);
  EXPECT_EQ(plain.total_rebuffer_s, injected.total_rebuffer_s);
  for (std::size_t i = 0; i < plain.tasks.size(); ++i) {
    EXPECT_EQ(plain.tasks[i].level, injected.tasks[i].level);
    EXPECT_EQ(plain.tasks[i].download_end_s, injected.tasks[i].download_end_s);
  }
}

TEST(SessionEngineTest, SteppedTimelineOrderingAndJoins) {
  const auto manifest = make_manifest(40.0, 2.0);
  const auto session = make_session(40.0, 20.0);
  // Level 13 (5.8 Mbps) segments take ~0.6 s on the 20 Mbps link, so every
  // download spans several 50 ms steps and emits progress events.
  abr::FixedBitrate early(13, "Early");
  abr::FixedBitrate late(13, "Late");
  MultiClientSimulator simulator(session.throughput_mbps);
  std::vector<ClientSetup> clients = {{&manifest, &early, &session, 0.0},
                                      {&manifest, &late, &session, 12.0}};
  SessionTimeline timeline;
  const auto results = simulator.run(clients, &timeline);
  ASSERT_EQ(results.size(), 2U);

  // One join per client, at (or on the step after) its join time.
  EXPECT_EQ(timeline.count(SessionEventType::kClientJoin), 2U);
  double join0 = -1.0;
  double join1 = -1.0;
  for (const auto& event : timeline.events()) {
    if (event.type != SessionEventType::kClientJoin) continue;
    if (event.client == 0) join0 = event.t_s;
    if (event.client == 1) join1 = event.t_s;
  }
  EXPECT_DOUBLE_EQ(join0, 0.0);
  EXPECT_GE(join1, 12.0);
  EXPECT_LT(join1, 12.0 + 2.0 * simulator.config().step_s);

  // Per-client: no stall event before that client's startup event, and the
  // first request never precedes the join.
  for (std::size_t c = 0; c < 2; ++c) {
    bool started = false;
    bool joined = false;
    for (const auto& event : timeline.events()) {
      if (event.client != c) continue;
      if (event.type == SessionEventType::kClientJoin) joined = true;
      if (event.type == SessionEventType::kStartup) started = true;
      if (event.type == SessionEventType::kRequestIssued) {
        EXPECT_TRUE(joined);
      }
      if (event.type == SessionEventType::kStall) {
        EXPECT_TRUE(started);
      }
    }
  }
  // Stepped runs emit progress events for multi-step downloads.
  EXPECT_GT(timeline.count(SessionEventType::kDownloadProgress), 0U);
}

TEST(SessionTimelineTest, CsvAndJsonRoundTrip) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  const PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(3, "Fixed");
  SessionTimeline timeline;
  simulator.run(policy, session, &timeline);
  ASSERT_FALSE(timeline.events().empty());

  // CSV: header + one line per event; event names match to_string().
  std::ostringstream csv;
  timeline.write_csv(csv);
  std::istringstream csv_in(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(csv_in, line));
  EXPECT_EQ(line, "t_s,client,event,segment,attempt,level,source,buffer_s,value");
  std::size_t rows = 0;
  while (std::getline(csv_in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, timeline.events().size());
  EXPECT_NE(csv.str().find("session_start"), std::string::npos);
  EXPECT_NE(csv.str().find("download_complete"), std::string::npos);
  EXPECT_NE(csv.str().find("session_end"), std::string::npos);

  // JSON: structurally balanced, one object per event.
  std::ostringstream json;
  timeline.write_json(json);
  const std::string text = json.str();
  std::size_t objects = 0;
  for (std::size_t pos = text.find("{\"t_s\""); pos != std::string::npos;
       pos = text.find("{\"t_s\"", pos + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, timeline.events().size());

  // File variants write and reload.
  const auto dir = ::testing::TempDir();
  const std::string csv_path = dir + "session_timeline_test.csv";
  timeline.write_csv(csv_path);
  std::ifstream reloaded(csv_path);
  ASSERT_TRUE(reloaded.good());
  std::getline(reloaded, line);
  EXPECT_EQ(line, "t_s,client,event,segment,attempt,level,source,buffer_s,value");
  std::remove(csv_path.c_str());
}

TEST(SessionTimelineTest, CountAndClear) {
  SessionTimeline timeline;
  SessionEvent event;
  event.type = SessionEventType::kStall;
  timeline.on_event(event);
  timeline.on_event(event);
  event.type = SessionEventType::kStartup;
  timeline.on_event(event);
  EXPECT_EQ(timeline.count(SessionEventType::kStall), 2U);
  EXPECT_EQ(timeline.count(SessionEventType::kStartup), 1U);
  EXPECT_EQ(timeline.count(SessionEventType::kAttemptDeadline), 0U);
  timeline.clear();
  EXPECT_TRUE(timeline.events().empty());
}

TEST(SessionEventTest, ToStringIsStable) {
  EXPECT_STREQ(to_string(SessionEventType::kSessionStart), "session_start");
  EXPECT_STREQ(to_string(SessionEventType::kAttemptDeadline), "attempt_deadline");
  EXPECT_STREQ(to_string(SessionEventType::kFaultTransition), "fault_transition");
  EXPECT_STREQ(to_string(SessionEventType::kSessionEnd), "session_end");
}

}  // namespace
}  // namespace eacs::player
