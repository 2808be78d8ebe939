#include "eacs/media/bitrate_ladder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace eacs::media {
namespace {

TEST(BitrateLadderTest, Table2MatchesPaper) {
  const auto ladder = BitrateLadder::table2();
  ASSERT_EQ(ladder.size(), 6U);
  EXPECT_DOUBLE_EQ(ladder.lowest_bitrate(), 0.10);
  EXPECT_DOUBLE_EQ(ladder.highest_bitrate(), 5.80);
  EXPECT_EQ(ladder.rung(0).resolution, "144p");
  EXPECT_EQ(ladder.rung(5).resolution, "1080p");
  EXPECT_DOUBLE_EQ(ladder.bitrate(4), 3.0);  // 720p
}

TEST(BitrateLadderTest, Evaluation14MatchesPaper) {
  const auto ladder = BitrateLadder::evaluation14();
  ASSERT_EQ(ladder.size(), 14U);
  const std::vector<double> expected = {0.1, 0.2,  0.24, 0.375, 0.55, 0.75, 1.0,
                                        1.5, 2.3,  2.56, 3.0,   3.6,  4.3,  5.8};
  EXPECT_EQ(ladder.bitrates(), expected);
}

TEST(BitrateLadderTest, SortsInput) {
  BitrateLadder ladder({{3.0, "hi"}, {1.0, "lo"}, {2.0, "mid"}});
  EXPECT_DOUBLE_EQ(ladder.bitrate(0), 1.0);
  EXPECT_DOUBLE_EQ(ladder.bitrate(2), 3.0);
}

TEST(BitrateLadderTest, RejectsBadLadders) {
  EXPECT_THROW(BitrateLadder({}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({{0.0, ""}}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({{-1.0, ""}}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({{1.0, ""}, {1.0, ""}}), std::invalid_argument);
}

TEST(BitrateLadderTest, HighestLevelNotAbove) {
  const auto ladder = BitrateLadder::table2();
  EXPECT_EQ(ladder.highest_level_not_above(3.0).value(), 4U);   // exactly 3.0
  EXPECT_EQ(ladder.highest_level_not_above(2.99).value(), 3U);  // 1.5
  EXPECT_EQ(ladder.highest_level_not_above(100.0).value(), 5U);
  EXPECT_FALSE(ladder.highest_level_not_above(0.05).has_value());
}

TEST(BitrateLadderTest, HighestLevelBelowIsStrict) {
  const auto ladder = BitrateLadder::table2();
  EXPECT_EQ(ladder.highest_level_below(3.0).value(), 3U);  // strictly below 3.0
  EXPECT_EQ(ladder.highest_level_below(3.01).value(), 4U);
  EXPECT_FALSE(ladder.highest_level_below(0.1).has_value());
}

TEST(BitrateLadderTest, ClampLevel) {
  const auto ladder = BitrateLadder::table2();
  EXPECT_EQ(ladder.clamp_level(-3), 0U);
  EXPECT_EQ(ladder.clamp_level(2), 2U);
  EXPECT_EQ(ladder.clamp_level(99), 5U);
}

TEST(BitrateLadderTest, LaddersShareNamedRungs) {
  // Every Table II rung appears in the 14-rate evaluation ladder.
  const auto small = BitrateLadder::table2();
  const auto big = BitrateLadder::evaluation14();
  const auto big_rates = big.bitrates();
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_NE(std::find(big_rates.begin(), big_rates.end(), small.bitrate(i)),
              big_rates.end())
        << "missing " << small.bitrate(i);
  }
}

}  // namespace
}  // namespace eacs::media
