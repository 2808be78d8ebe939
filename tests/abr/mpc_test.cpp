#include "eacs/abr/mpc.h"

#include <gtest/gtest.h>

#include "eacs/player/player.h"
#include "../test_helpers.h"

namespace eacs::abr {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;

struct Fixture {
  media::VideoManifest manifest = make_manifest(120.0, 2.0);
  net::HarmonicMeanEstimator estimator{20};

  player::AbrContext context(double buffer_s, std::optional<std::size_t> prev) {
    player::AbrContext ctx;
    ctx.segment_index = 10;
    ctx.num_segments = manifest.num_segments();
    ctx.buffer_s = buffer_s;
    ctx.prev_level = prev;
    ctx.manifest = &manifest;
    ctx.bandwidth = &estimator;
    return ctx;
  }
};

TEST(MpcTest, InvalidConfigThrows) {
  EXPECT_THROW(Mpc{0}, std::invalid_argument);
}

TEST(MpcTest, NoEstimateStartsLowest) {
  Fixture fixture;
  Mpc policy;
  EXPECT_EQ(policy.choose_level(fixture.context(0.0, std::nullopt)), 0U);
}

TEST(MpcTest, AbundantBandwidthGoesHigh) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(50.0);
  Mpc policy;
  EXPECT_GE(policy.choose_level(fixture.context(20.0, 13U)), 12U);
}

TEST(MpcTest, ScarceBandwidthStaysLow) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(1.0);
  Mpc policy;
  // 1 Mbps (discounted to 0.85): the highest sustainable rate is 0.75 Mbps
  // (level 5); anything above stalls inside the horizon.
  EXPECT_LE(policy.choose_level(fixture.context(2.0, std::nullopt)), 5U);
}

TEST(MpcTest, BufferCushionsEnableHigherRates) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(3.0);
  Mpc policy;
  const auto starved = policy.choose_level(fixture.context(1.0, 5U));
  const auto cushioned = policy.choose_level(fixture.context(28.0, 5U));
  EXPECT_GE(cushioned, starved);
}

TEST(MpcTest, SwitchPenaltyDampsOscillation) {
  // At 2 Mbps with 4 s of buffer a fresh start picks rung 8, but from rung 7
  // the switch penalty keeps the player where it is.
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(2.0);
  Mpc policy;
  EXPECT_EQ(policy.choose_level(fixture.context(4.0, std::nullopt)), 8U);
  EXPECT_EQ(policy.choose_level(fixture.context(4.0, 7U)), 7U);
}

// Pins the objective's weights by literal values: in each context below a
// 10% change of one weight, either way, moves the choice (rebuffer penalty
// and switch penalty: 3 Mbps from rung 6, and 1 Mbps from rung 3; bandwidth
// discount: 1 Mbps from rung 0 and from a fresh start), all at 0.5 s of
// buffer.
TEST(MpcTest, ChoicesWhereEachWeightBindsArePinned) {
  Mpc policy;
  const auto choice = [&](double mbps, std::optional<std::size_t> prev) {
    Fixture fixture;
    for (int i = 0; i < 20; ++i) fixture.estimator.observe(mbps);
    return policy.choose_level(fixture.context(0.5, prev));
  };
  EXPECT_EQ(choice(3.0, 6U), 6U);
  EXPECT_EQ(choice(1.0, 3U), 2U);
  EXPECT_EQ(choice(1.0, 0U), 1U);
  EXPECT_EQ(choice(1.0, std::nullopt), 2U);
}

TEST(MpcTest, EndToEndRunBeatsFixedLowOnQoeProxy) {
  const auto manifest = make_manifest(120.0, 2.0);
  player::PlayerSimulator simulator(manifest);
  const auto session = make_session(120.0, 15.0);
  Mpc policy;
  const auto result = simulator.run(policy, session);
  EXPECT_DOUBLE_EQ(result.total_rebuffer_s, 0.0);
  EXPECT_GT(result.mean_bitrate_mbps(), 1.5);
}

TEST(MpcTest, HorizonTruncatesAtStreamEnd) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(10.0);
  Mpc policy;
  auto ctx = fixture.context(20.0, 7U);
  ctx.segment_index = fixture.manifest.num_segments() - 1;  // last segment
  EXPECT_NO_THROW(policy.choose_level(ctx));
}

}  // namespace
}  // namespace eacs::abr
