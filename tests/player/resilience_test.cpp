#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "eacs/abr/fixed.h"
#include "eacs/core/objective.h"
#include "eacs/core/online.h"
#include "eacs/player/player.h"
#include "eacs/player/session_engine.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::run_with_link_faults;

/// Records every failure notification the player emits.
class ProbePolicy : public AbrPolicy {
 public:
  explicit ProbePolicy(std::size_t level = 0) : level_(level) {}
  std::string name() const override { return "Probe"; }
  std::size_t choose_level(const AbrContext&) override { return level_; }
  void on_download_failure(const DownloadFailure& failure) override {
    failures.push_back(failure);
  }
  void reset() override { failures.clear(); }

  std::vector<DownloadFailure> failures;

 private:
  std::size_t level_;
};

void expect_identical(const PlaybackResult& a, const PlaybackResult& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const auto& x = a.tasks[i];
    const auto& y = b.tasks[i];
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.size_mb, y.size_mb);
    EXPECT_EQ(x.download_start_s, y.download_start_s);
    EXPECT_EQ(x.download_end_s, y.download_end_s);
    EXPECT_EQ(x.throughput_mbps, y.throughput_mbps);
    EXPECT_EQ(x.signal_dbm, y.signal_dbm);
    EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.abandoned, y.abandoned);
    EXPECT_EQ(x.wasted_mb, y.wasted_mb);
    EXPECT_EQ(x.backoff_s, y.backoff_s);
  }
  EXPECT_EQ(a.startup_delay_s, b.startup_delay_s);
  EXPECT_EQ(a.total_rebuffer_s, b.total_rebuffer_s);
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
  EXPECT_EQ(a.switch_count, b.switch_count);
  EXPECT_EQ(a.session_end_s, b.session_end_s);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.abandoned_segments, b.abandoned_segments);
  EXPECT_EQ(a.total_wasted_mb, b.total_wasted_mb);
  EXPECT_EQ(a.total_backoff_s, b.total_backoff_s);
}

TEST(ResilienceTest, InactiveInjectorIsBitIdenticalToPlainRun) {
  const auto manifest = make_manifest(60.0, 2.0);
  const PlayerSimulator simulator(manifest);
  const auto session = make_session(60.0, 12.0);
  const net::FaultInjector faults(session.throughput_mbps, net::FaultSpec{});

  // The link, not PlayerSimulator, carries the no-op: the event streams
  // match too.
  abr::FixedBitrate plain_policy(5, "Mid");
  abr::FixedBitrate faulty_policy(5, "Mid");
  SessionTimeline plain_timeline;
  SessionTimeline routed_timeline;
  const auto plain = simulator.run(plain_policy, session, &plain_timeline);
  const auto routed =
      run_with_link_faults(simulator, faulty_policy, session, faults, &routed_timeline);
  expect_identical(plain, routed);
  std::ostringstream plain_csv;
  std::ostringstream routed_csv;
  plain_timeline.write_csv(plain_csv);
  routed_timeline.write_csv(routed_csv);
  EXPECT_EQ(plain_csv.str(), routed_csv.str());
  EXPECT_EQ(routed.total_retries, 0U);
  EXPECT_EQ(routed.total_wasted_mb, 0.0);
}

TEST(ResilienceTest, PerRequestFailuresRetryWithWasteAccounting) {
  const auto manifest = make_manifest(60.0, 2.0);
  const PlayerSimulator simulator(manifest);
  const auto session = make_session(60.0, 12.0);

  net::FaultSpec spec;
  spec.failure_prob = 0.95;  // nearly every attempt dies mid-transfer
  spec.seed = 11;
  const net::FaultInjector faults(session.throughput_mbps, spec, &session.signal_dbm);

  ProbePolicy policy(5);
  const auto result = run_with_link_faults(simulator, policy, session, faults);

  ASSERT_EQ(result.tasks.size(), manifest.num_segments());
  EXPECT_GT(result.total_retries, 0U);
  EXPECT_GT(result.total_wasted_mb, 0.0);
  EXPECT_GT(result.total_backoff_s, 0.0);
  EXPECT_FALSE(policy.failures.empty());
  for (const auto& task : result.tasks) {
    EXPECT_LE(task.retries, kMaxRetries);
    if (task.retries > 0) {
      EXPECT_GT(task.backoff_s, 0.0);
    }
    if (task.wasted_mb > 0.0) {
      EXPECT_GT(task.wasted_download_s, 0.0);
    }
  }
}

TEST(ResilienceTest, StalledTransfersAbortAtTheDeadline) {
  const auto manifest = make_manifest(30.0, 2.0);
  const PlayerSimulator simulator(manifest);
  const auto session = make_session(30.0, 12.0);

  net::FaultSpec spec;
  spec.stall_prob = 1.0;  // every regular attempt is a slow loris
  spec.stall_rate_mbps = 0.01;
  const net::FaultInjector faults(session.throughput_mbps, spec);

  ProbePolicy policy(3);
  const auto result = run_with_link_faults(simulator, policy, session, faults);

  ASSERT_EQ(result.tasks.size(), manifest.num_segments());
  for (const auto& task : result.tasks) {
    // Every pre-rescue attempt stalls and is cut at the deadline; the rescue
    // fetch (attempt == kMaxRetries) bypasses per-request faults.
    EXPECT_EQ(task.retries, kMaxRetries);
    EXPECT_GE(task.wasted_download_s,
              static_cast<double>(kMaxRetries) * kAttemptDeadlineS - 1e-6);
  }
  EXPECT_EQ(policy.failures.size(), manifest.num_segments() * kMaxRetries);
}

TEST(ResilienceTest, NoAbandonmentWithFourSecondsOfBuffer) {
  // Every 2 s segment at rung 6 (1 Mbps) takes 10 s on a 0.2 Mbps link, and
  // an outage long after the last download keeps the link unreliable
  // without touching a transfer. Playback starts with 4 s buffered, so
  // segment 2 is requested at 4 s of buffer with a transfer that outlasts
  // twice that: at the 4 s floor it is not abandoned. Segment 3, requested
  // at 2 s, is.
  const auto manifest = make_manifest(12.0, 2.0);
  const PlayerSimulator simulator(manifest);
  const auto session = make_session(12.0, 0.2);
  net::FaultSpec spec;
  spec.outages = {{150.0, 151.0}};
  const net::FaultInjector faults(session.throughput_mbps, spec);

  ProbePolicy policy(6);
  const auto result = run_with_link_faults(simulator, policy, session, faults);
  ASSERT_EQ(result.tasks.size(), manifest.num_segments());
  const TaskRecord& at_floor = result.tasks[2];
  EXPECT_GE(at_floor.buffer_before_s, 4.0);
  EXPECT_LT(at_floor.buffer_before_s, 5.0);
  EXPECT_GT(at_floor.download_end_s - at_floor.download_start_s,
            2.0 * at_floor.buffer_before_s);
  EXPECT_FALSE(at_floor.abandoned);
  EXPECT_EQ(at_floor.retries, 0U);
  EXPECT_LT(result.tasks[3].buffer_before_s, 4.0);
  EXPECT_TRUE(result.tasks[3].abandoned);
}

TEST(ResilienceTest, OutageDegradesToLowestAndRecovers) {
  const auto manifest = make_manifest(60.0, 2.0);
  const PlayerSimulator simulator(manifest);
  const auto session = make_session(60.0, 12.0);

  net::FaultSpec spec;
  spec.outages = {{6.0, 40.0}};  // long dead window early in the session
  const net::FaultInjector faults(session.throughput_mbps, spec);

  ProbePolicy policy(8);
  const auto result = run_with_link_faults(simulator, policy, session, faults);

  ASSERT_EQ(result.tasks.size(), manifest.num_segments());
  // At least one segment inside the outage was retried down to the lowest
  // rung even though the policy kept requesting level 8.
  bool degraded = false;
  for (const auto& task : result.tasks) {
    if (task.retries > 0 && task.level == manifest.ladder().lowest_level()) {
      degraded = true;
    }
  }
  EXPECT_TRUE(degraded);
  EXPECT_FALSE(policy.failures.empty());
  bool saw_outage_flag = false;
  for (const auto& f : policy.failures) saw_outage_flag |= f.during_outage;
  EXPECT_TRUE(saw_outage_flag);
  EXPECT_TRUE(std::isfinite(result.session_end_s));
}

TEST(ResilienceTest, OnlineSelectorSuppressesRampUpAfterFailure) {
  // Unit-level check of the replan hook: after on_download_failure the
  // online selector must not pick above prev_level - 1 for the cooldown.
  const qoe::QoeModel qoe_model{};
  const power::PowerModel power_model{};
  core::ObjectiveConfig objective_config;
  const core::Objective objective(qoe_model, power_model, objective_config);
  core::OnlineBitrateSelector selector(objective, {});
  selector.reset();

  const auto manifest = make_manifest(60.0, 2.0);
  net::HarmonicMeanEstimator bandwidth(20);
  for (int i = 0; i < 5; ++i) bandwidth.observe(40.0);  // rich link

  AbrContext context;
  context.segment_index = 10;
  context.num_segments = 30;
  context.buffer_s = 20.0;
  context.startup_phase = false;
  context.prev_level = 6;
  context.manifest = &manifest;
  context.bandwidth = &bandwidth;

  const std::size_t before = selector.choose_level(context);
  selector.on_download_failure({10, 0, 100.0, true});
  const std::size_t after = selector.choose_level(context);
  EXPECT_LE(after, 5U);       // capped one rung below prev_level
  EXPECT_LE(after, before);   // never higher than the unfailed choice

  // Cooldown expires after kFailureCooldownSegments decisions.
  (void)selector.choose_level(context);
  const std::size_t recovered = selector.choose_level(context);
  EXPECT_EQ(recovered, before);
}

}  // namespace
}  // namespace eacs::player
