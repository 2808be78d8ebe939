// Shared-bottleneck runs: SessionEngine's stepped run over a one-cell
// CellularLinkModel, every client splitting the cell's capacity.

#include <gtest/gtest.h>

#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/player/session_engine.h"
#include "eacs/util/stats.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;

trace::TimeSeries constant_capacity(double mbps, double duration = 2000.0) {
  trace::TimeSeries series;
  series.append(0.0, mbps);
  series.append(duration, mbps);
  return series;
}

TEST(MultiClientTest, InvalidInputsThrow) {
  EXPECT_THROW(CellularLinkModel{trace::TimeSeries{}}, std::invalid_argument);
  SessionEngineConfig config;
  config.step_s = 0.0;
  EXPECT_THROW(SessionEngine{config}, std::invalid_argument);
  const auto capacity = constant_capacity(10.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> bad = {{nullptr, nullptr, nullptr, 0.0}};
  EXPECT_THROW(engine.run(bad, link), std::invalid_argument);
}

TEST(MultiClientTest, SingleClientMatchesSinglePlayerApproximately) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 12.0);
  abr::FixedBitrate fixed(7, "Mid");

  const PlayerSimulator single(manifest);
  const auto single_result = single.run(fixed, session);

  const auto capacity = constant_capacity(12.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> clients = {{&manifest, &fixed, &session, 0.0}};
  const auto multi_results = engine.run(clients, link);
  ASSERT_EQ(multi_results.size(), 1U);
  const auto& multi_result = multi_results[0];

  ASSERT_EQ(multi_result.tasks.size(), single_result.tasks.size());
  EXPECT_NEAR(multi_result.mean_bitrate_mbps(), single_result.mean_bitrate_mbps(),
              1e-9);
  EXPECT_NEAR(multi_result.total_rebuffer_s, single_result.total_rebuffer_s, 0.5);
  EXPECT_NEAR(multi_result.tasks.back().download_end_s,
              single_result.tasks.back().download_end_s, 2.0);
  // Same ladder decisions => byte-identical downloads, and the stepped
  // integration may only shift timings by the step granularity.
  EXPECT_DOUBLE_EQ(multi_result.total_downloaded_mb(),
                   single_result.total_downloaded_mb());
  EXPECT_NEAR(multi_result.startup_delay_s, single_result.startup_delay_s, 0.5);
  EXPECT_NEAR(multi_result.session_end_s, single_result.session_end_s, 2.0);
}

TEST(MultiClientTest, EqualClientsShareFairly) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 24.0);
  abr::Festive a;
  abr::Festive b;
  abr::Festive c;
  const auto capacity = constant_capacity(24.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> clients = {{&manifest, &a, &session, 0.0},
                                        {&manifest, &b, &session, 0.0},
                                        {&manifest, &c, &session, 0.0}};
  const auto results = engine.run(clients, link);
  ASSERT_EQ(results.size(), 3U);
  std::vector<double> bitrates;
  for (const auto& result : results) bitrates.push_back(result.mean_bitrate_mbps());
  EXPECT_GT(jain_fairness(bitrates), 0.95);
  // Shared 24 Mbps across 3 clients: each sees roughly 8; FESTIVE should
  // settle clearly below the solo rate.
  for (double bitrate : bitrates) {
    EXPECT_LT(bitrate, 7.0);
    EXPECT_GT(bitrate, 1.0);
  }
}

TEST(MultiClientTest, MoreClientsMeanLowerBitrates) {
  // Long video so FESTIVE's one-level-per-segment ramp-up is amortised and
  // the steady-state difference dominates: solo ~5.8 Mbps on a 20 Mbps
  // link, four-way sharing ~5 Mbps each -> FESTIVE settles at 4.3.
  const auto manifest = make_manifest(240.0, 2.0);
  const auto session = make_session(240.0, 20.0);
  const auto capacity = constant_capacity(20.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};

  abr::Festive solo_policy;
  std::vector<SessionClient> solo = {{&manifest, &solo_policy, &session, 0.0}};
  const auto solo_results = engine.run(solo, link);

  abr::Festive p1;
  abr::Festive p2;
  abr::Festive p3;
  abr::Festive p4;
  std::vector<SessionClient> four = {{&manifest, &p1, &session, 0.0},
                                     {&manifest, &p2, &session, 0.0},
                                     {&manifest, &p3, &session, 0.0},
                                     {&manifest, &p4, &session, 0.0}};
  const auto four_results = engine.run(four, link);

  double four_mean = 0.0;
  for (const auto& result : four_results) four_mean += result.mean_bitrate_mbps();
  four_mean /= 4.0;
  EXPECT_LT(four_mean, 0.85 * solo_results[0].mean_bitrate_mbps());
}

TEST(MultiClientTest, LateJoinerStartsLater) {
  const auto manifest = make_manifest(40.0, 2.0);
  const auto session = make_session(40.0, 20.0);
  abr::FixedBitrate early(3, "Early");
  abr::FixedBitrate late(3, "Late");
  const auto capacity = constant_capacity(20.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> clients = {{&manifest, &early, &session, 0.0},
                                        {&manifest, &late, &session, 30.0}};
  const auto results = engine.run(clients, link);
  EXPECT_LT(results[0].tasks.front().download_start_s, 1.0);
  EXPECT_GE(results[1].tasks.front().download_start_s, 30.0);
  EXPECT_GT(results[1].startup_delay_s, results[0].startup_delay_s + 25.0);
}

TEST(MultiClientTest, TightLinkCausesStallsForGreedyClients) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 6.0);
  abr::FixedBitrate a;  // 5.8 Mbps each over a 6 Mbps shared link
  abr::FixedBitrate b;
  const auto capacity = constant_capacity(6.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> clients = {{&manifest, &a, &session, 0.0},
                                        {&manifest, &b, &session, 0.0}};
  const auto results = engine.run(clients, link);
  EXPECT_GT(results[0].total_rebuffer_s + results[1].total_rebuffer_s, 10.0);
}

TEST(MultiClientTest, StaggeredJoinersNeverDownloadBeforeTheirJoinTime) {
  const auto manifest = make_manifest(40.0, 2.0);
  const auto session = make_session(40.0, 30.0);
  abr::FixedBitrate p1(3, "A");
  abr::FixedBitrate p2(3, "B");
  abr::FixedBitrate p3(3, "C");
  const auto capacity = constant_capacity(30.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  const std::vector<double> joins = {0.0, 7.5, 21.0};
  std::vector<SessionClient> clients = {{&manifest, &p1, &session, joins[0]},
                                        {&manifest, &p2, &session, joins[1]},
                                        {&manifest, &p3, &session, joins[2]}};
  const auto results = engine.run(clients, link);
  ASSERT_EQ(results.size(), 3U);
  const double step = engine.config().step_s;
  for (std::size_t c = 0; c < results.size(); ++c) {
    ASSERT_EQ(results[c].tasks.size(), manifest.num_segments());
    // First request lands on the first integration step at/after the join.
    EXPECT_GE(results[c].tasks.front().download_start_s, joins[c]);
    EXPECT_LT(results[c].tasks.front().download_start_s, joins[c] + 2.0 * step);
    // Startup order follows join order.
    if (c > 0) {
      EXPECT_GT(results[c].startup_delay_s, results[c - 1].startup_delay_s);
    }
  }
}

TEST(MultiClientTest, MaxSessionHardStopTruncatesTheRun) {
  const auto manifest = make_manifest(120.0, 2.0);
  const auto session = make_session(120.0, 0.5);
  abr::FixedBitrate greedy(13, "Top");  // far more than the link can carry
  SessionEngineConfig config;
  config.max_session_s = 30.0;
  const auto capacity = constant_capacity(0.5);
  const CellularLinkModel link(capacity);
  const SessionEngine engine(config);
  std::vector<SessionClient> clients = {{&manifest, &greedy, &session, 0.0}};
  const auto results = engine.run(clients, link);
  ASSERT_EQ(results.size(), 1U);
  // The run stops at the hard stop with the video unfinished: no task can
  // end after the stop, and the session ends at stop + residual buffer.
  EXPECT_LT(results[0].tasks.size(), manifest.num_segments());
  for (const auto& task : results[0].tasks) {
    EXPECT_LE(task.download_end_s, config.max_session_s + config.step_s);
  }
  EXPECT_GE(results[0].session_end_s, config.max_session_s);
  EXPECT_LT(results[0].session_end_s,
            config.max_session_s + config.step_s + manifest.num_segments() * 2.0);
}

TEST(MultiClientTest, MaxSessionHardStopPinsStartupForSilentClients) {
  // A client that never accumulates the startup buffer before the hard stop
  // reports the stop time as its startup delay (nothing ever played).
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 0.1);
  abr::FixedBitrate greedy(13, "Top");
  SessionEngineConfig config;
  config.max_session_s = 5.0;
  const auto capacity = constant_capacity(0.1);
  const CellularLinkModel link(capacity);
  const SessionEngine engine(config);
  std::vector<SessionClient> clients = {{&manifest, &greedy, &session, 0.0}};
  const auto results = engine.run(clients, link);
  ASSERT_EQ(results.size(), 1U);
  EXPECT_TRUE(results[0].tasks.empty());
  EXPECT_GE(results[0].startup_delay_s, config.max_session_s);
  EXPECT_EQ(results[0].total_rebuffer_s, 0.0);
}

TEST(MultiClientTest, EveryClientDownloadsEverySegment) {
  const auto manifest = make_manifest(30.0, 2.0);
  const auto session = make_session(30.0, 15.0);
  abr::Festive p1;
  abr::Festive p2;
  const auto capacity = constant_capacity(15.0);
  const CellularLinkModel link(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> clients = {{&manifest, &p1, &session, 0.0},
                                        {&manifest, &p2, &session, 0.0}};
  for (const auto& result : engine.run(clients, link)) {
    ASSERT_EQ(result.tasks.size(), manifest.num_segments());
    for (std::size_t i = 0; i < result.tasks.size(); ++i) {
      EXPECT_EQ(result.tasks[i].segment_index, i);
    }
  }
}

}  // namespace
}  // namespace eacs::player
