// SessionInvariantChecker: every engine run — solo, fault-injected,
// sensor-fault-injected, stepped multi-client — must satisfy the physical
// invariants, and attaching the checker must never perturb a result.

#include "eacs/player/session_invariants.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/net/fault_injector.h"
#include "eacs/player/player.h"
#include "eacs/player/session_engine.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/trace/session.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::run_with_link_faults;

SessionEvent clock_event(SessionEventType type, double t_s, std::size_t client,
                         double buffer_s = 5.0) {
  SessionEvent event;
  event.type = type;
  event.t_s = t_s;
  event.client = client;
  event.buffer_s = buffer_s;
  return event;
}

/// Feeds the canonical minimal prelude: session start + client startup.
void feed_prelude(SessionInvariantChecker& checker) {
  checker.on_event(clock_event(SessionEventType::kSessionStart, 0.0, kNoIndex, 0.0));
  checker.on_event(clock_event(SessionEventType::kStartup, 1.0, 0, 5.0));
}

TEST(SessionInvariantCheckerTest, CleanSoloRunSatisfiesAllInvariants) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0);
  const PlayerSimulator simulator(manifest);
  abr::Bba policy(5.0, 30.0);
  SessionInvariantChecker checker(simulator.config(),
                                  manifest.ladder().size());
  const auto result = simulator.run(policy, session, &checker);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_GT(checker.events_seen(), 0U);
  EXPECT_TRUE(SessionInvariantChecker::check_result(
                  result, manifest.ladder().size())
                  .empty());
}

TEST(SessionInvariantCheckerTest, CheckerAttachmentDoesNotPerturbTheResult) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0);
  const PlayerSimulator simulator(manifest);

  abr::Festive bare_policy;
  const auto bare = simulator.run(bare_policy, session);

  abr::Festive checked_policy;
  SessionInvariantChecker checker(simulator.config(),
                                  manifest.ladder().size());
  const auto checked = simulator.run(checked_policy, session, &checker);

  ASSERT_EQ(bare.tasks.size(), checked.tasks.size());
  EXPECT_EQ(bare.startup_delay_s, checked.startup_delay_s);
  EXPECT_EQ(bare.total_rebuffer_s, checked.total_rebuffer_s);
  EXPECT_EQ(bare.session_end_s, checked.session_end_s);
  for (std::size_t i = 0; i < bare.tasks.size(); ++i) {
    EXPECT_EQ(bare.tasks[i].level, checked.tasks[i].level);
    EXPECT_EQ(bare.tasks[i].download_end_s, checked.tasks[i].download_end_s);
  }
}

TEST(SessionInvariantCheckerTest, FaultInjectedRunSatisfiesAllInvariants) {
  const auto manifest = make_manifest(120.0, 2.0);
  const auto session = make_session(120.0, 8.0);
  net::FaultSpec spec;
  spec.outages.push_back({20.0, 35.0});
  spec.failure_prob = 0.15;
  const net::FaultInjector faults(session.throughput_mbps, spec);
  const PlayerSimulator simulator(manifest);
  abr::Bba policy(5.0, 30.0);
  SessionInvariantChecker checker(simulator.config(),
                                  manifest.ladder().size());
  const auto result = run_with_link_faults(
      simulator, policy, session, faults, &checker);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_TRUE(SessionInvariantChecker::check_result(
                  result, manifest.ladder().size())
                  .empty());
}

TEST(SessionInvariantCheckerTest, SensorFaultRunSatisfiesAllInvariants) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -85.0, 3.0);
  sensors::SensorFaultSpec spec;
  spec.accel_episode_rate_per_min = 4.0;
  spec.signal_dropout_rate_per_min = 2.0;
  const sensors::SensorFaultInjector injector(
      session.accel, trace::signal_samples(session.signal_dbm), spec);
  const PlayerSimulator simulator(manifest);
  abr::Bba policy(5.0, 30.0);
  SessionInvariantChecker checker(simulator.config(),
                                  manifest.ladder().size());
  const auto result = simulator.run(policy, session, injector, &checker);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_TRUE(SessionInvariantChecker::check_result(
                  result, manifest.ladder().size())
                  .empty());
}

TEST(SessionInvariantCheckerTest, SteppedMultiClientRunSatisfiesAllInvariants) {
  const auto manifest = make_manifest(40.0, 2.0);
  const auto session = make_session(40.0, 10.0);
  abr::FixedBitrate a(3, "A");
  abr::Bba b(5.0, 30.0);
  std::vector<SessionClient> clients = {{&manifest, &a, &session, 0.0},
                                        {&manifest, &b, &session, 5.0}};
  const CellularLinkModel link(session.throughput_mbps);
  const SessionEngine engine{SessionEngineConfig{}};
  SessionInvariantChecker checker(SessionEngineConfig{}.player,
                                  manifest.ladder().size());
  const auto results = engine.run(clients, link, &checker);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  for (const auto& result : results) {
    EXPECT_TRUE(SessionInvariantChecker::check_result(
                    result, manifest.ladder().size())
                    .empty());
  }
}

// -- Violation detection on hand-crafted event streams --

SessionInvariantConfig lenient() {
  SessionInvariantConfig config;
  config.throw_on_violation = false;
  return config;
}

TEST(SessionInvariantCheckerTest, DetectsNonFiniteFields) {
  SessionInvariantChecker checker(lenient());
  feed_prelude(checker);
  auto event = clock_event(SessionEventType::kDownloadComplete, 2.0, 0);
  event.value = std::numeric_limits<double>::quiet_NaN();
  checker.on_event(event);
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("non-finite"), std::string::npos);
}

TEST(SessionInvariantCheckerTest, DetectsBufferOutsideBounds) {
  SessionInvariantChecker checker(lenient());
  feed_prelude(checker);
  checker.on_event(clock_event(SessionEventType::kDownloadComplete, 2.0, 0,
                               /*buffer_s=*/100.0));
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("buffer outside"),
            std::string::npos);
}

TEST(SessionInvariantCheckerTest, DetectsBackwardsClientClock) {
  SessionInvariantChecker checker(lenient());
  feed_prelude(checker);
  checker.on_event(clock_event(SessionEventType::kRequestIssued, 10.0, 0));
  checker.on_event(clock_event(SessionEventType::kRequestIssued, 9.0, 0));
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("clock moved backwards"),
            std::string::npos);
}

TEST(SessionInvariantCheckerTest, BackStampedDrainIsNotAClockViolation) {
  SessionInvariantChecker checker(lenient());
  feed_prelude(checker);
  checker.on_event(clock_event(SessionEventType::kDownloadComplete, 10.0, 0));
  // Drains are emitted after the completion but stamped at the span start.
  checker.on_event(clock_event(SessionEventType::kBufferDrain, 8.0, 0));
  EXPECT_TRUE(checker.ok());
}

TEST(SessionInvariantCheckerTest, DetectsLevelOutsideLadder) {
  auto config = lenient();
  config.num_levels = 5;
  SessionInvariantChecker checker(config);
  feed_prelude(checker);
  auto event = clock_event(SessionEventType::kRequestIssued, 2.0, 0);
  event.level = 5;
  checker.on_event(event);
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("ladder"), std::string::npos);
}

TEST(SessionInvariantCheckerTest, DetectsDuplicateStartupAndEarlyDrain) {
  SessionInvariantChecker checker(lenient());
  checker.on_event(clock_event(SessionEventType::kSessionStart, 0.0, kNoIndex, 0.0));
  checker.on_event(clock_event(SessionEventType::kBufferDrain, 0.5, 0));
  checker.on_event(clock_event(SessionEventType::kStartup, 1.0, 0));
  checker.on_event(clock_event(SessionEventType::kStartup, 2.0, 0));
  ASSERT_EQ(checker.violations().size(), 2U);
  EXPECT_NE(checker.violations()[0].find("before startup"), std::string::npos);
  EXPECT_NE(checker.violations()[1].find("duplicate startup"), std::string::npos);
}

TEST(SessionInvariantCheckerTest, DetectsStallWithNonEmptyBuffer) {
  SessionInvariantChecker checker(lenient());
  feed_prelude(checker);
  checker.on_event(clock_event(SessionEventType::kStall, 2.0, 0, /*buffer_s=*/3.0));
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("non-empty buffer"),
            std::string::npos);
}

TEST(SessionInvariantCheckerTest, DetectsSessionBookkeepingViolations) {
  SessionInvariantChecker checker(lenient());
  checker.on_event(clock_event(SessionEventType::kRequestIssued, 0.0, 0));
  EXPECT_FALSE(checker.ok());  // event before session_start
  checker.reset();
  EXPECT_TRUE(checker.ok());
  checker.on_event(clock_event(SessionEventType::kSessionStart, 0.0, kNoIndex, 0.0));
  checker.on_event(clock_event(SessionEventType::kSessionStart, 0.0, kNoIndex, 0.0));
  EXPECT_FALSE(checker.ok());  // duplicate session_start
}

TEST(SessionInvariantCheckerTest, ThrowsOnViolationByDefault) {
  SessionInvariantChecker checker;
  feed_prelude(checker);
  EXPECT_THROW(checker.on_event(clock_event(SessionEventType::kStall, 2.0, 0,
                                            /*buffer_s=*/3.0)),
               std::logic_error);
}

TEST(SessionInvariantCheckerTest, CheckResultFlagsCorruptedResults) {
  PlaybackResult result;
  result.startup_delay_s = 1.0;
  result.session_end_s = 0.5;  // ends before startup
  TaskRecord task;
  task.segment_index = 0;
  task.duration_s = 2.0;
  task.download_start_s = 5.0;
  task.download_end_s = 4.0;  // ends before it starts
  task.vibration = std::numeric_limits<double>::infinity();
  result.tasks.push_back(task);
  const auto violations = SessionInvariantChecker::check_result(result, 14);
  EXPECT_GE(violations.size(), 3U);
}

}  // namespace
}  // namespace eacs::player
