// Property suite: invariants of the session engine's shared-bottleneck run
// (a one-cell CellularLinkModel) over random fleet configurations.

#include <gtest/gtest.h>

#include <memory>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/player/session_engine.h"
#include "eacs/util/rng.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

class MultiClientProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiClientProperties, PerClientInvariantsHold) {
  eacs::Rng rng(GetParam());
  const double duration = rng.uniform(40.0, 120.0);
  const auto manifest = eacs::testing::make_manifest(duration, 2.0);
  const auto session = eacs::testing::make_session(duration, 10.0, -100.0, 4.0);

  // Random fleet: 2-5 clients with mixed policies and join times.
  const auto fleet_size = static_cast<std::size_t>(rng.uniform_int(2, 5));
  std::vector<std::unique_ptr<AbrPolicy>> policies;
  std::vector<SessionClient> clients;
  for (std::size_t i = 0; i < fleet_size; ++i) {
    switch (rng.uniform_int(0, 2)) {
      case 0: policies.push_back(std::make_unique<abr::Festive>()); break;
      case 1: policies.push_back(std::make_unique<abr::Bba>(5.0, 30.0)); break;
      default:
        policies.push_back(std::make_unique<abr::FixedBitrate>(
            static_cast<std::size_t>(rng.uniform_int(0, 13)), "Fixed"));
    }
    clients.push_back(
        {&manifest, policies.back().get(), &session, rng.uniform(0.0, 10.0)});
  }

  trace::TimeSeries capacity;
  capacity.append(0.0, rng.uniform(8.0, 30.0));
  capacity.append(4000.0, rng.uniform(8.0, 30.0));
  const CellularLinkModel shared(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  const auto results = engine.run(clients, shared);
  ASSERT_EQ(results.size(), fleet_size);

  for (std::size_t c = 0; c < fleet_size; ++c) {
    const auto& result = results[c];
    // Every segment downloaded once, in order, after the join time.
    ASSERT_EQ(result.tasks.size(), manifest.num_segments());
    EXPECT_GE(result.tasks.front().download_start_s, clients[c].join_time_s - 1e-9);
    for (std::size_t i = 0; i < result.tasks.size(); ++i) {
      EXPECT_EQ(result.tasks[i].segment_index, i);
      if (i > 0) {
        EXPECT_GE(result.tasks[i].download_start_s,
                  result.tasks[i - 1].download_end_s - 1e-9);
      }
      EXPECT_GT(result.tasks[i].throughput_mbps, 0.0);
      EXPECT_GE(result.tasks[i].rebuffer_s, 0.0);
      EXPECT_NEAR(result.tasks[i].size_mb,
                  manifest.segment_size_megabits(i, result.tasks[i].level) / 8.0,
                  1e-9);
    }
    // Stall bookkeeping consistent.
    double stall_sum = 0.0;
    for (const auto& task : result.tasks) stall_sum += task.rebuffer_s;
    EXPECT_NEAR(result.total_rebuffer_s, stall_sum, 1e-9);
  }
}

TEST_P(MultiClientProperties, AggregateThroughputBoundedByCapacity) {
  eacs::Rng rng(GetParam() ^ 0xCAFE);
  const auto manifest = eacs::testing::make_manifest(60.0, 2.0);
  const auto session = eacs::testing::make_session(60.0, 10.0);
  const double link = rng.uniform(6.0, 20.0);
  trace::TimeSeries capacity;
  capacity.append(0.0, link);
  capacity.append(4000.0, link);

  abr::FixedBitrate a(10, "A");
  abr::FixedBitrate b(10, "B");
  std::vector<SessionClient> clients = {{&manifest, &a, &session, 0.0},
                                        {&manifest, &b, &session, 0.0}};
  const CellularLinkModel shared(capacity);
  const SessionEngine engine{SessionEngineConfig{}};
  const auto results = engine.run(clients, shared);

  // Total bits delivered cannot exceed capacity * elapsed time.
  double total_megabits = 0.0;
  double last_end = 0.0;
  for (const auto& result : results) {
    total_megabits += result.total_downloaded_mb() * 8.0;
    last_end = std::max(last_end, result.tasks.back().download_end_s);
  }
  EXPECT_LE(total_megabits, link * last_end * 1.02 + 1.0);  // 2% step slack
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiClientProperties,
                         ::testing::Values(41, 42, 43, 44, 45));

}  // namespace
}  // namespace eacs::player
