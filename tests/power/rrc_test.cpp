#include "eacs/power/rrc.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace eacs::power {
namespace {

// Tail energy after a single isolated burst (the textbook number).
double single_tail_energy_j(const RrcConfig& config) {
  return config.connected_tail_w * config.inactivity_s +
         config.short_drx_w * config.short_drx_s +
         config.long_drx_w * config.long_drx_s;
}

TEST(RrcTest, IsolatedBurstPaysPromotionAndFullTail) {
  RrcConfig config;
  RrcSimulator rrc(config);
  // One 2 s burst, session long enough for the full tail.
  const auto breakdown = rrc.analyze({{10.0, 12.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  EXPECT_DOUBLE_EQ(breakdown.promotion_energy_j, config.promotion_energy_j);
  EXPECT_DOUBLE_EQ(breakdown.active_time_s, 2.0);
  EXPECT_NEAR(breakdown.tail_energy_j, single_tail_energy_j(config), 1e-9);
  // Idle: before the burst (10 s) and after the tail.
  const double tail_span = config.inactivity_s + config.short_drx_s + config.long_drx_s;
  EXPECT_NEAR(breakdown.idle_time_s, 10.0 + (60.0 - 12.0 - tail_span), 1e-9);
}

TEST(RrcTest, CloseBurstsShareOneTail) {
  RrcConfig config;
  RrcSimulator rrc(config);
  // Two bursts 1 s apart: the gap is shorter than the tail, so no second
  // promotion and only the gap's worth of tail is burnt between them.
  const auto breakdown = rrc.analyze({{0.0, 2.0}, {3.0, 5.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  const double tail_span = config.inactivity_s + config.short_drx_s + config.long_drx_s;
  // Tail time: 1 s between bursts + full tail after the second burst.
  EXPECT_NEAR(breakdown.tail_time_s, 1.0 + tail_span, 1e-9);
}

TEST(RrcTest, FarBurstsPayTwoPromotions) {
  RrcConfig config;
  RrcSimulator rrc(config);
  const double tail_span = config.inactivity_s + config.short_drx_s + config.long_drx_s;
  const auto breakdown =
      rrc.analyze({{0.0, 1.0}, {1.0 + tail_span + 5.0, 2.0 + tail_span + 5.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 2U);
  EXPECT_NEAR(breakdown.tail_energy_j, 2.0 * single_tail_energy_j(config), 1e-9);
}

TEST(RrcTest, OverlappingBurstsMerged) {
  RrcSimulator rrc{RrcConfig{}};
  const auto breakdown = rrc.analyze({{0.0, 3.0}, {2.0, 5.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  EXPECT_DOUBLE_EQ(breakdown.active_time_s, 5.0);
}

TEST(RrcTest, UnsortedInputHandled) {
  RrcSimulator rrc{RrcConfig{}};
  const auto sorted = rrc.analyze({{0.0, 1.0}, {30.0, 31.0}}, 60.0);
  const auto shuffled = rrc.analyze({{30.0, 31.0}, {0.0, 1.0}}, 60.0);
  EXPECT_DOUBLE_EQ(sorted.total_energy_j(), shuffled.total_energy_j());
}

TEST(RrcTest, GapShorterThanInactivityStaysConnected) {
  RrcConfig config;
  RrcSimulator rrc(config);
  // 0.1 s gap < 0.2 s inactivity: the whole gap burns CONNECTED-tail power.
  const auto breakdown = rrc.analyze({{0.0, 1.0}, {1.1, 2.0}}, 30.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  // Gap tail portion: 0.1 s at connected_tail_w.
  const double gap_energy = config.connected_tail_w * 0.1;
  EXPECT_NEAR(breakdown.tail_energy_j,
              gap_energy + single_tail_energy_j(config), 1e-9);
}

TEST(RrcTest, EnergyMonotoneInBurstSpreading) {
  // The same 10 s of radio activity costs more energy when split into
  // spread-out bursts (more tails) than as one block.
  RrcSimulator rrc{RrcConfig{}};
  const auto block = rrc.analyze({{0.0, 10.0}}, 300.0);
  std::vector<TransferBurst> spread;
  for (int i = 0; i < 10; ++i) {
    const double start = i * 25.0;
    spread.push_back({start, start + 1.0});
  }
  const auto split = rrc.analyze(spread, 300.0);
  EXPECT_GT(split.total_energy_j(), block.total_energy_j() + 10.0);
  EXPECT_EQ(split.promotions, 10U);
}

TEST(RrcTest, NoBurstsIsAllIdle) {
  RrcConfig config;
  RrcSimulator rrc(config);
  const auto breakdown = rrc.analyze({}, 100.0);
  EXPECT_DOUBLE_EQ(breakdown.idle_time_s, 100.0);
  EXPECT_NEAR(breakdown.total_energy_j(), config.idle_w * 100.0, 1e-9);
  EXPECT_EQ(breakdown.promotions, 0U);
}

TEST(RrcTest, InvalidInputsThrow) {
  RrcSimulator rrc{RrcConfig{}};
  EXPECT_THROW(rrc.analyze({{5.0, 3.0}}, 60.0), std::invalid_argument);
  EXPECT_THROW(rrc.analyze({{-1.0, 3.0}}, 60.0), std::invalid_argument);
  EXPECT_THROW(rrc.analyze({{0.0, 10.0}}, 5.0), std::invalid_argument);
  RrcConfig bad;
  bad.long_drx_s = -1.0;
  EXPECT_THROW(RrcSimulator{bad}, std::invalid_argument);
}

TEST(RrcTest, BreakdownTimesCoverSession) {
  RrcSimulator rrc{RrcConfig{}};
  const auto breakdown = rrc.analyze({{5.0, 8.0}, {20.0, 22.0}}, 120.0);
  EXPECT_NEAR(breakdown.active_time_s + breakdown.tail_time_s + breakdown.idle_time_s,
              120.0, 1e-9);
}

}  // namespace
}  // namespace eacs::power
