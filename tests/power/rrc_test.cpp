#include "eacs/power/rrc.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace eacs::power {
namespace {

// Tail energy after a single isolated burst (the textbook number).
constexpr double kSingleTailEnergyJ = kRrcConnectedTailW * kRrcInactivityS +
                                      kRrcShortDrxW * kRrcShortDrxS +
                                      kRrcLongDrxW * kRrcLongDrxS;
constexpr double kTailSpan = kRrcInactivityS + kRrcShortDrxS + kRrcLongDrxS;

// What rrc_breakdown throws for the given input ("" if it does not throw).
std::string error_of(std::vector<TransferBurst> bursts, double session_end_s) {
  try {
    (void)rrc_breakdown(std::move(bursts), session_end_s);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(RrcTest, IsolatedBurstPaysPromotionAndFullTail) {
  // One 2 s burst, session long enough for the full tail.
  const auto breakdown = rrc_breakdown({{10.0, 12.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  EXPECT_DOUBLE_EQ(breakdown.promotion_energy_j, kRrcPromotionEnergyJ);
  EXPECT_DOUBLE_EQ(breakdown.active_time_s, 2.0);
  EXPECT_NEAR(breakdown.tail_energy_j, kSingleTailEnergyJ, 1e-9);
  // Idle: before the burst (10 s) and after the tail.
  EXPECT_NEAR(breakdown.idle_time_s, 10.0 + (60.0 - 12.0 - kTailSpan), 1e-9);
}

TEST(RrcTest, CloseBurstsShareOneTail) {
  // Two bursts 1 s apart: the gap is shorter than the tail, so no second
  // promotion and only the gap's worth of tail is burnt between them.
  const auto breakdown = rrc_breakdown({{0.0, 2.0}, {3.0, 5.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  // Tail time: 1 s between bursts + full tail after the second burst.
  EXPECT_NEAR(breakdown.tail_time_s, 1.0 + kTailSpan, 1e-9);
}

TEST(RrcTest, FarBurstsPayTwoPromotions) {
  const auto breakdown =
      rrc_breakdown({{0.0, 1.0}, {1.0 + kTailSpan + 5.0, 2.0 + kTailSpan + 5.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 2U);
  EXPECT_NEAR(breakdown.tail_energy_j, 2.0 * kSingleTailEnergyJ, 1e-9);
}

TEST(RrcTest, OverlappingBurstsMerged) {
  const auto breakdown = rrc_breakdown({{0.0, 3.0}, {2.0, 5.0}}, 60.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  EXPECT_DOUBLE_EQ(breakdown.active_time_s, 5.0);
}

TEST(RrcTest, UnsortedInputHandled) {
  const auto sorted = rrc_breakdown({{0.0, 1.0}, {30.0, 31.0}}, 60.0);
  const auto shuffled = rrc_breakdown({{30.0, 31.0}, {0.0, 1.0}}, 60.0);
  EXPECT_DOUBLE_EQ(sorted.total_energy_j(), shuffled.total_energy_j());
}

TEST(RrcTest, GapShorterThanInactivityStaysConnected) {
  // 0.1 s gap < 0.2 s inactivity: the whole gap burns CONNECTED-tail power.
  const auto breakdown = rrc_breakdown({{0.0, 1.0}, {1.1, 2.0}}, 30.0);
  EXPECT_EQ(breakdown.promotions, 1U);
  // Gap tail portion: 0.1 s at connected_tail_w.
  const double gap_energy = kRrcConnectedTailW * 0.1;
  EXPECT_NEAR(breakdown.tail_energy_j,
              gap_energy + kSingleTailEnergyJ, 1e-9);
}

TEST(RrcTest, EnergyMonotoneInBurstSpreading) {
  // The same 10 s of radio activity costs more energy when split into
  // spread-out bursts (more tails) than as one block.
  const auto block = rrc_breakdown({{0.0, 10.0}}, 300.0);
  std::vector<TransferBurst> spread;
  for (int i = 0; i < 10; ++i) {
    const double start = i * 25.0;
    spread.push_back({start, start + 1.0});
  }
  const auto split = rrc_breakdown(spread, 300.0);
  EXPECT_GT(split.total_energy_j(), block.total_energy_j() + 10.0);
  EXPECT_EQ(split.promotions, 10U);
}

TEST(RrcTest, NoBurstsIsAllIdle) {
  const auto breakdown = rrc_breakdown({}, 100.0);
  EXPECT_DOUBLE_EQ(breakdown.idle_time_s, 100.0);
  EXPECT_NEAR(breakdown.total_energy_j(), kRrcIdleW * 100.0, 1e-9);
  EXPECT_EQ(breakdown.promotions, 0U);
}

TEST(RrcTest, InvalidInputsThrow) {
  EXPECT_THROW(rrc_breakdown({{5.0, 3.0}}, 60.0), std::invalid_argument);
  EXPECT_THROW(rrc_breakdown({{-1.0, 3.0}}, 60.0), std::invalid_argument);
  EXPECT_THROW(rrc_breakdown({{0.0, 10.0}}, 5.0), std::invalid_argument);
  // NaN fails every check, and the error names the burst or the session end.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(error_of({{5.0, 8.0}, {nan, 22.0}}, 120.0).find("burst 1"),
            std::string::npos);
  EXPECT_NE(error_of({{5.0, 8.0}, {20.0, nan}}, 120.0).find("burst 1"),
            std::string::npos);
  EXPECT_NE(error_of({{5.0, 8.0}, {20.0, 22.0}}, nan).find("session_end_s"),
            std::string::npos);
}

// Pins the machine's published-LTE constants by literal values: a fixed burst
// list whose gaps end inside CONNECTED (0.1 s), inside short DRX (0.5 s and
// 1 s) and past the whole tail (18 s), so every timer, state power and the
// promotion energy moves a number below.
TEST(RrcTest, FixedBurstListBreakdownIsPinned) {
  const auto breakdown = rrc_breakdown(
      {{5.0, 8.0}, {8.1, 9.0}, {9.5, 10.0}, {11.0, 12.0}, {30.0, 32.0}}, 120.0);
  EXPECT_EQ(breakdown.promotions, 2U);
  EXPECT_NEAR(breakdown.active_time_s, 7.4, 1e-9);
  EXPECT_NEAR(breakdown.tail_time_s, 24.0, 1e-9);
  EXPECT_NEAR(breakdown.idle_time_s, 88.6, 1e-9);
  EXPECT_NEAR(breakdown.active_energy_j, 8.14, 1e-9);
  EXPECT_NEAR(breakdown.tail_energy_j, 9.915, 1e-9);
  EXPECT_NEAR(breakdown.idle_energy_j, 0.886, 1e-9);
  EXPECT_NEAR(breakdown.promotion_energy_j, 0.9, 1e-9);
  EXPECT_NEAR(breakdown.total_energy_j(), 19.841, 1e-9);
}

TEST(RrcTest, BreakdownTimesCoverSession) {
  const auto breakdown = rrc_breakdown({{5.0, 8.0}, {20.0, 22.0}}, 120.0);
  EXPECT_NEAR(breakdown.active_time_s + breakdown.tail_time_s + breakdown.idle_time_s,
              120.0, 1e-9);
}

}  // namespace
}  // namespace eacs::power
