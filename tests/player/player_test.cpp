#include "eacs/player/player.h"

#include <gtest/gtest.h>

#include <limits>

#include "eacs/abr/fixed.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::make_step_session;

TEST(PlayerSimulatorTest, DownloadsEverySegmentOnce) {
  const auto manifest = make_manifest(60.0, 2.0);
  PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(0, "Lowest");
  const auto session = make_session(60.0, 20.0);
  const auto result = simulator.run(policy, session);
  ASSERT_EQ(result.tasks.size(), manifest.num_segments());
  for (std::size_t i = 0; i < result.tasks.size(); ++i) {
    EXPECT_EQ(result.tasks[i].segment_index, i);
    EXPECT_EQ(result.tasks[i].level, 0U);
  }
}

TEST(PlayerSimulatorTest, FastNetworkNoRebuffering) {
  PlayerSimulator simulator(make_manifest(120.0, 2.0));
  abr::FixedBitrate policy;  // highest: 5.8 Mbps
  const auto session = make_session(120.0, 40.0);
  const auto result = simulator.run(policy, session);
  EXPECT_DOUBLE_EQ(result.total_rebuffer_s, 0.0);
  EXPECT_EQ(result.rebuffer_events, 0U);
  EXPECT_EQ(result.switch_count, 0U);
}

TEST(PlayerSimulatorTest, SlowNetworkRebuffers) {
  PlayerSimulator simulator(make_manifest(60.0, 2.0));
  abr::FixedBitrate policy;  // 5.8 Mbps over a 3 Mbps link
  const auto session = make_session(60.0, 3.0);
  const auto result = simulator.run(policy, session);
  EXPECT_GT(result.total_rebuffer_s, 10.0);
  EXPECT_GT(result.rebuffer_events, 0U);
}

TEST(PlayerSimulatorTest, SessionEndCoversVideoDuration) {
  // Wall-clock end >= video duration; with ample bandwidth it is close to it.
  PlayerSimulator simulator(make_manifest(60.0, 2.0));
  abr::FixedBitrate policy(0, "Lowest");
  const auto session = make_session(60.0, 50.0);
  const auto result = simulator.run(policy, session);
  EXPECT_GE(result.session_end_s, 60.0 - 1e-6);
  EXPECT_LT(result.session_end_s, 65.0);
}

TEST(PlayerSimulatorTest, StartupDelayReflectsBandwidth) {
  PlayerSimulator fast_sim(make_manifest(60.0, 2.0));
  abr::FixedBitrate policy;  // 5.8 Mbps segments
  const auto fast = fast_sim.run(policy, make_session(60.0, 50.0));
  const auto slow = fast_sim.run(policy, make_session(60.0, 6.0));
  EXPECT_GT(slow.startup_delay_s, fast.startup_delay_s);
  EXPECT_GT(fast.startup_delay_s, 0.0);
}

TEST(PlayerSimulatorTest, BufferThrottleCapsLead) {
  // With a huge pipe the player must not race ahead of the 30 s threshold:
  // every decision sees buffer <= threshold.
  PlayerConfig config;
  config.buffer_threshold_s = 30.0;
  PlayerSimulator simulator(make_manifest(300.0, 2.0), config);
  abr::FixedBitrate policy(0, "Lowest");
  const auto result = simulator.run(policy, make_session(300.0, 100.0));
  for (const auto& task : result.tasks) {
    EXPECT_LE(task.buffer_before_s, 30.0 + 1e-6);
  }
}

TEST(PlayerSimulatorTest, ThroughputRecordedPerTask) {
  PlayerSimulator simulator(make_manifest(30.0, 2.0));
  abr::FixedBitrate policy(5, "Mid");
  const auto result = simulator.run(policy, make_session(30.0, 12.0));
  for (const auto& task : result.tasks) {
    EXPECT_NEAR(task.throughput_mbps, 12.0, 0.5);
    EXPECT_NEAR(task.signal_dbm, -90.0, 0.5);
  }
}

TEST(PlayerSimulatorTest, VibrationVisibleInTasks) {
  PlayerSimulator simulator(make_manifest(60.0, 2.0));
  abr::FixedBitrate policy(0, "Lowest");
  const auto result = simulator.run(policy, make_session(60.0, 20.0, -90.0, 5.0));
  // After the estimator warms up, tasks should see ~5 m/s^2.
  const auto& late_task = result.tasks.back();
  EXPECT_NEAR(late_task.vibration, 5.0, 0.8);
}

TEST(PlayerSimulatorTest, SwitchCountTracksLevelChanges) {
  // A policy that alternates levels every segment.
  class Alternator final : public AbrPolicy {
   public:
    std::string name() const override { return "Alternator"; }
    std::size_t choose_level(const AbrContext& context) override {
      return context.segment_index % 2;
    }
  };
  PlayerSimulator simulator(make_manifest(20.0, 2.0));
  Alternator policy;
  const auto result = simulator.run(policy, make_session(20.0, 30.0));
  EXPECT_EQ(result.switch_count, result.tasks.size() - 1);
}

TEST(PlayerSimulatorTest, MeanBitrateAndDownloadTotals) {
  PlayerSimulator simulator(make_manifest(60.0, 2.0));
  abr::FixedBitrate policy;  // 5.8
  const auto result = simulator.run(policy, make_session(60.0, 40.0));
  EXPECT_NEAR(result.mean_bitrate_mbps(), 5.8, 1e-9);
  EXPECT_NEAR(result.total_downloaded_mb(), 5.8 * 60.0 / 8.0, 1e-6);
}

TEST(PlayerSimulatorTest, ThroughputDropMidSessionCausesStall) {
  PlayerSimulator simulator(make_manifest(120.0, 2.0));
  abr::FixedBitrate policy;  // 5.8 fixed
  // 40 Mbps for 30 s, then 1 Mbps.
  const auto session = make_step_session(120.0, 40.0, 1.0, 30.0);
  const auto result = simulator.run(policy, session);
  EXPECT_GT(result.total_rebuffer_s, 0.0);
  // Stalls only appear after the throughput collapse.
  for (const auto& task : result.tasks) {
    if (task.rebuffer_s > 0.0) {
      EXPECT_GT(task.download_start_s, 25.0);
    }
  }
}

TEST(PlayerSimulatorTest, InvalidConfigThrows) {
  PlayerConfig bad;
  bad.buffer_threshold_s = 0.0;
  EXPECT_THROW(PlayerSimulator(make_manifest(), bad), std::invalid_argument);
  PlayerConfig inverted;
  inverted.startup_buffer_s = 50.0;
  inverted.buffer_threshold_s = 30.0;
  EXPECT_THROW(PlayerSimulator(make_manifest(), inverted), std::invalid_argument);
  PlayerConfig nan_threshold;
  nan_threshold.buffer_threshold_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PlayerSimulator(make_manifest(), nan_threshold),
               std::invalid_argument);
}

TEST(PlayerSimulatorTest, PolicyLevelClamped) {
  class Insane final : public AbrPolicy {
   public:
    std::string name() const override { return "Insane"; }
    std::size_t choose_level(const AbrContext&) override { return 999; }
  };
  PlayerSimulator simulator(make_manifest(10.0, 2.0));
  Insane policy;
  const auto result = simulator.run(policy, make_session(10.0, 50.0));
  for (const auto& task : result.tasks) EXPECT_EQ(task.level, 13U);
}

TEST(PlayerSimulatorTest, StartupTasksFlagged) {
  PlayerSimulator simulator(make_manifest(60.0, 2.0));
  abr::FixedBitrate policy(0, "Lowest");
  const auto result = simulator.run(policy, make_session(60.0, 20.0));
  EXPECT_TRUE(result.tasks.front().startup);
  EXPECT_FALSE(result.tasks.back().startup);
}

}  // namespace
}  // namespace eacs::player
