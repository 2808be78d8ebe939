#include "eacs/player/session_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/net/fault_injector.h"
#include "eacs/player/player.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::run_with_link_faults;

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

/// Delegating wrapper that counts choose_level consultations.
class CountingPolicy final : public AbrPolicy {
 public:
  explicit CountingPolicy(AbrPolicy& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  std::size_t choose_level(const AbrContext& context) override {
    ++calls_;
    return inner_->choose_level(context);
  }
  void on_download_failure(const DownloadFailure& failure) override {
    inner_->on_download_failure(failure);
  }
  void reset() override { inner_->reset(); }

  std::size_t calls() const noexcept { return calls_; }

 private:
  AbrPolicy* inner_;
  std::size_t calls_ = 0;
};

TEST(SessionEngineTest, ConfigValidation) {
  SessionEngineConfig bad;
  bad.player.buffer_threshold_s = 0.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  bad = SessionEngineConfig{};
  bad.player.startup_buffer_s = bad.player.buffer_threshold_s + 1.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  bad = SessionEngineConfig{};
  bad.player.buffer_threshold_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  // The stepped run's step and hard stop are checked by name. With a NaN
  // stop the cellular path played every segment while the one-cell
  // reference loop played none; a negative stop played nothing, and an
  // infinite step ended the first segment at t = inf.
  const auto rejects = [](SessionEngineConfig config, const char* field) {
    try {
      const SessionEngine engine{config};
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double stop : {nan, -1.0, 0.0, -inf}) {
    bad = SessionEngineConfig{};
    bad.max_session_s = stop;
    rejects(bad, "max_session_s");
  }
  for (const double step : {inf, nan, 0.0}) {
    bad = SessionEngineConfig{};
    bad.step_s = step;
    rejects(bad, "step_s");
  }
  // An unbounded stop stays allowed: both one-cell paths play to the end.
  bad = SessionEngineConfig{};
  bad.max_session_s = inf;
  EXPECT_NO_THROW(SessionEngine{bad});
  // The vibration estimator's config is checked up front, not at the first
  // run that builds an estimator.
  bad = SessionEngineConfig{};
  bad.player.vibration.highpass_cutoff_hz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  EXPECT_THROW(PlayerSimulator(make_manifest(20.0, 2.0), bad.player),
               std::invalid_argument);
  EXPECT_NO_THROW(SessionEngine{SessionEngineConfig{}});
}

template <typename Clients, typename Link>
concept EngineRuns = requires(const SessionEngine& engine,
                              const Clients& clients, const Link& link) {
  engine.run(clients, link);
};

TEST(SessionEngineTest, AnalyticLinksTakeExactlyOneClient) {
  // The analytic run's type admits one client; a list of them compiles
  // only against the stepped link.
  static_assert(EngineRuns<SessionClient, SoloLinkModel>);
  static_assert(!EngineRuns<std::span<const SessionClient>, SoloLinkModel>);
  static_assert(!EngineRuns<std::vector<SessionClient>, SoloLinkModel>);
  static_assert(EngineRuns<std::vector<SessionClient>, CellularLinkModel>);
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  abr::FixedBitrate a(3, "A");
  const SoloLinkModel link(session.throughput_mbps);
  const SessionEngine engine{SessionEngineConfig{}};
  const SessionClient null_client{nullptr, &a, &session, 0.0};
  EXPECT_THROW(engine.run(null_client, link), std::invalid_argument);
}

TEST(SessionEngineTest, NanSampleTimestampsThrowNamingTheSample) {
  // Every comparison with NaN is false, so a time walk that reaches a NaN
  // timestamp would stop there for good and freeze what it feeds.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto names_index = [](const std::invalid_argument& error,
                              const char* index) {
    return std::string(error.what()).find(index) != std::string::npos;
  };
  auto shaky = make_session(60.0, 8.0, -90.0, 3.0);
  shaky.accel[100].t_s = nan;  // between the 1.98 s and 2.02 s samples
  sensors::VibrationTrack track(shaky.accel, sensors::VibrationConfig{});
  VibrationClock clock(track);
  EXPECT_NO_THROW(clock.advance_to(1.0));
  try {
    clock.advance_to(1e9);
    ADD_FAILURE() << "the clock walked past a NaN timestamp";
  } catch (const std::invalid_argument& error) {
    EXPECT_TRUE(names_index(error, "accel sample 100 ")) << error.what();
  }

  // The perceived signal stream of a sensor-fault run: the injector refuses
  // the NaN-stamped reading before any run can walk to it.
  const auto session = make_session(60.0, 10.0);
  auto readings = trace::signal_samples(session.signal_dbm);
  readings[10].t_s = nan;
  sensors::SensorFaultSpec spec;
  spec.signal_dropout_rate_per_min = 1.0;
  try {
    const sensors::SensorFaultInjector injector(session.accel, readings, spec);
    ADD_FAILURE() << "the injector accepted a NaN timestamp";
  } catch (const std::invalid_argument& error) {
    EXPECT_TRUE(names_index(error, "signal reading 10 ")) << error.what();
  }
}

TEST(SessionEngineTest, RejectsAForeignVibrationTrack) {
  // A client's track must read its context's accel trace, the same object,
  // under the engine's vibration config: a track over an equal copy could
  // drift from the context it claims, and one under another window prices
  // another vibration. Both run modes refuse either and name which.
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0, -90.0, 3.0);
  const auto copy = session;
  abr::FixedBitrate policy(3, "A");
  const SessionEngine engine{SessionEngineConfig{}};
  const SoloLinkModel link(session.throughput_mbps);
  const CellularLinkModel cell(session.throughput_mbps);
  const auto rejected_naming = [&](sensors::VibrationTrack& track,
                                   const std::string& what) {
    SessionClient client{&manifest, &policy, &session};
    client.vibration_track = &track;
    int named = 0;
    try {
      engine.run(client, link);
    } catch (const std::invalid_argument& error) {
      named += std::string(error.what()).find(what) != std::string::npos;
    }
    try {
      engine.run({&client, 1}, cell);
    } catch (const std::invalid_argument& error) {
      named += std::string(error.what()).find(what) != std::string::npos;
    }
    return named == 2;
  };
  sensors::VibrationTrack foreign(copy.accel, sensors::VibrationConfig{});
  EXPECT_TRUE(rejected_naming(foreign, "another trace than context->accel"));
  sensors::VibrationConfig wide;
  wide.window_s = 12.0;
  sensors::VibrationTrack other_config(session.accel, wide);
  EXPECT_TRUE(rejected_naming(other_config, "another config than player.vibration"));

  // The matching track plays, and reads what a run-built track reads.
  sensors::VibrationTrack own(session.accel, sensors::VibrationConfig{});
  SessionClient client{&manifest, &policy, &session};
  const auto built = engine.run(client, link);
  client.vibration_track = &own;
  const auto shared = engine.run(client, link);
  ASSERT_EQ(built.tasks.size(), shared.tasks.size());
  for (std::size_t i = 0; i < built.tasks.size(); ++i) {
    EXPECT_EQ(built.tasks[i].vibration, shared.tasks[i].vibration) << i;
  }
  EXPECT_GT(shared.tasks.back().vibration, 1.0);
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
  abr::Bba bba(5.0, 30.0);
  CountingPolicy policy(bba);
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

  // One policy consultation, one request and one completion per segment.
  EXPECT_EQ(policy.calls(), manifest.num_segments());
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
  const auto result = run_with_link_faults(
      simulator, policy, session, faults, &timeline);

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

  // Every deadline event lands exactly kAttemptDeadlineS after its request.
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
    EXPECT_NEAR(events[i].t_s - request_t, kAttemptDeadlineS, 1e-9);
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
  const auto injected = run_with_link_faults(simulator, b, session, inactive);
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
  const CellularLinkModel link(session.throughput_mbps);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> clients = {{&manifest, &early, &session, 0.0},
                                        {&manifest, &late, &session, 12.0}};
  SessionTimeline timeline;
  const auto results = engine.run(clients, link, &timeline);
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
  EXPECT_LT(join1, 12.0 + 2.0 * engine.config().step_s);

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
