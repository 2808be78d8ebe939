#include "eacs/qoe/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/sim/fleet.h"

namespace eacs::qoe {
namespace {

TEST(QoeModelTest, OriginalQualityMonotoneInBitrate) {
  const QoeModel model;
  double prev = 0.0;
  for (double r : {0.1, 0.375, 0.75, 1.5, 3.0, 5.8}) {
    const double q = model.original_quality(r);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(QoeModelTest, OriginalQualitySaturatesAtHighBitrate) {
  // The paper: QoE does not improve much beyond 720p on a phone.
  const QoeModel model;
  const double gain_low = model.original_quality(0.75) - model.original_quality(0.375);
  const double gain_high = model.original_quality(5.8) - model.original_quality(3.0);
  EXPECT_GT(gain_low, 2.0 * gain_high);
}

TEST(QoeModelTest, QuietRoom1080pTo480pDropMatchesPaper) {
  // Fig. 1(b): ~12% QoE drop from 1080p to 480p in a quiet room.
  const QoeModel model;
  const double q1080 = model.original_quality(5.8);
  const double q480 = model.original_quality(1.5);
  const double drop = (q1080 - q480) / q1080;
  EXPECT_GT(drop, 0.05);
  EXPECT_LT(drop, 0.15);
}

TEST(QoeModelTest, VehicleDropMuchSmallerThanRoomDrop) {
  // Fig. 1(b): on a moving vehicle (v ~ 6) the same 1080p->480p drop is only
  // ~4% because vibration hurts high bitrates more.
  const QoeModel model;
  const double v = 6.0;
  const double room_drop = (model.original_quality(5.8) - model.original_quality(1.5)) /
                           model.original_quality(5.8);
  const double vehicle_drop =
      (model.perceived_quality(5.8, v) - model.perceived_quality(1.5, v)) /
      model.perceived_quality(5.8, v);
  EXPECT_LT(vehicle_drop, 0.6 * room_drop);
}

TEST(QoeModelTest, ImpairmentMatchesPaperSpotChecks) {
  // Fig. 2(c) spot values quoted in the text.
  const QoeModel model;
  EXPECT_NEAR(model.vibration_impairment(2.0, 1.5), 0.049, 0.01);
  EXPECT_NEAR(model.vibration_impairment(6.0, 1.5), 0.184, 0.02);
  EXPECT_NEAR(model.vibration_impairment(2.0, 5.8), 0.174, 0.02);
  EXPECT_NEAR(model.vibration_impairment(6.0, 5.8), 0.549, 0.04);
}

TEST(QoeModelTest, ImpairmentZeroAtZeroVibrationOrBitrate) {
  const QoeModel model;
  EXPECT_DOUBLE_EQ(model.vibration_impairment(0.0, 5.8), 0.0);
  EXPECT_DOUBLE_EQ(model.vibration_impairment(-1.0, 5.8), 0.0);
  EXPECT_DOUBLE_EQ(model.vibration_impairment(6.0, 0.0), 0.0);
}

TEST(QoeModelTest, ImpairmentMonotoneInBothArguments) {
  const QoeModel model;
  EXPECT_LT(model.vibration_impairment(2.0, 3.0), model.vibration_impairment(4.0, 3.0));
  EXPECT_LT(model.vibration_impairment(4.0, 1.0), model.vibration_impairment(4.0, 3.0));
}

TEST(QoeModelTest, PerceivedQualityClampedToMosRange) {
  QoeModelParams params;
  params.kappa = 10.0;  // absurd impairment
  const QoeModel model(params);
  EXPECT_GE(model.perceived_quality(5.8, 7.0), 1.0);
  EXPECT_LE(model.perceived_quality(5.8, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(QoeModel().original_quality(0.0), 1.0);
  EXPECT_DOUBLE_EQ(QoeModel().original_quality(1e-9), 1.0);  // floor clamp
}

TEST(QoeModelTest, SwitchImpairment) {
  const QoeModel model;
  EXPECT_DOUBLE_EQ(model.switch_impairment(3.0, 0.0), 0.0);   // first segment
  EXPECT_DOUBLE_EQ(model.switch_impairment(3.0, 3.0), 0.0);   // no change
  const double up = model.switch_impairment(5.8, 1.5);
  const double down = model.switch_impairment(1.5, 5.8);
  EXPECT_DOUBLE_EQ(up, down);  // symmetric in |q0 delta|
  EXPECT_GT(up, 0.0);
}

TEST(QoeModelTest, SegmentQoeComposition) {
  const QoeModel model;
  SegmentContext context;
  context.bitrate_mbps = 3.0;
  context.vibration = 4.0;
  context.prev_bitrate_mbps = 1.5;
  context.rebuffer_s = 0.5;
  const double expected = model.original_quality(3.0) -
                          model.vibration_impairment(4.0, 3.0) -
                          model.switch_impairment(3.0, 1.5) -
                          model.params().rebuffer_penalty_per_s * 0.5;
  EXPECT_DOUBLE_EQ(model.segment_qoe(context), expected);
}

TEST(QoeModelTest, RebufferingHurts) {
  const QoeModel model;
  SegmentContext clean{3.0, 2.0, 3.0, 0.0};
  SegmentContext stalled{3.0, 2.0, 3.0, 2.0};
  EXPECT_GT(model.segment_qoe(clean), model.segment_qoe(stalled) + 1.0);
}

TEST(QoeModelTest, ContextAwareSweetSpotUnderVibration) {
  // Under heavy vibration the perceived-quality gain from the top bitrate is
  // tiny: q(5.8) - q(1.5) shrinks by an order of magnitude vs the quiet room.
  const QoeModel model;
  const double quiet_gain = model.perceived_quality(5.8, 0.0) -
                            model.perceived_quality(1.5, 0.0);
  const double shaky_gain = model.perceived_quality(5.8, 7.0) -
                            model.perceived_quality(1.5, 7.0);
  EXPECT_LT(shaky_gain, 0.5 * quiet_gain);
}

TEST(QoeModelTest, InvalidParamsThrow) {
  QoeModelParams params;
  params.mos_min = 5.0;
  params.mos_max = 1.0;
  EXPECT_THROW(QoeModel{params}, std::invalid_argument);
  QoeModelParams negative;
  negative.kappa = -1.0;
  EXPECT_THROW(QoeModel{negative}, std::invalid_argument);

  // Every field must be finite: a NaN or infinite coefficient made every
  // segment_qoe NaN, and a NaN mos_min passed the ordering check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  double QoeModelParams::*const fields[] = {
      &QoeModelParams::a,       &QoeModelParams::b,
      &QoeModelParams::kappa,   &QoeModelParams::alpha_v,
      &QoeModelParams::beta_r,  &QoeModelParams::switch_penalty,
      &QoeModelParams::rebuffer_penalty_per_s,
      &QoeModelParams::mos_min, &QoeModelParams::mos_max};
  for (double QoeModelParams::*const field : fields) {
    for (const double bad : {nan, inf, -inf}) {
      QoeModelParams p;
      p.*field = bad;
      EXPECT_THROW(QoeModel{p}, std::invalid_argument) << bad;
    }
  }
  QoeModelParams equal_bounds;
  equal_bounds.mos_min = equal_bounds.mos_max = 3.0;
  EXPECT_THROW(QoeModel{equal_bounds}, std::invalid_argument);
  QoeModelParams negative_switch;
  negative_switch.switch_penalty = -0.5;
  EXPECT_THROW(QoeModel{negative_switch}, std::invalid_argument);
  // The message names the field.
  try {
    QoeModelParams p;
    p.a = nan;
    (void)QoeModel{p};
    ADD_FAILURE() << "a = NaN accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("a must be finite"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(QoeModel{});
}

// The rung-term path: q0(r) and r^beta_r tabulated per ladder, v^alpha_v
// once per call, bitwise equal to the SegmentContext path.
TEST(QoeModelTest, TabulatedSegmentQoeEqualsContextPath) {
  const QoeModel model;
  const std::vector<std::vector<double>> ladders = {
      sim::FleetConfig{}.ladder_mbps,
      media::BitrateLadder::evaluation14().bitrates()};
  for (const std::vector<double>& ladder : ladders) {
    const RungTerms rungs = model.rung_terms(ladder);
    ASSERT_EQ(rungs.quality.size(), ladder.size());
    for (std::size_t level = 0; level < ladder.size(); ++level) {
      EXPECT_EQ(rungs.quality[level], model.original_quality(ladder[level]));
      EXPECT_EQ(rungs.rate_factor[level],
                std::pow(ladder[level], model.params().beta_r));
      for (const double vibration : {0.0, 0.3, 1.2, 3.0}) {
        EXPECT_EQ(model.vibration_impairment(
                      rungs, level, vibration,
                      model.vibration_weight(vibration)),
                  model.vibration_impairment(vibration, ladder[level]));
        std::vector<std::optional<std::size_t>> prevs = {std::nullopt};
        for (std::size_t p = 0; p < ladder.size(); ++p) prevs.push_back(p);
        for (const std::optional<std::size_t> prev : prevs) {
          for (const double rebuffer : {0.0, 0.7, -1.0}) {
            SegmentContext context;
            context.bitrate_mbps = ladder[level];
            context.vibration = vibration;
            context.prev_bitrate_mbps = prev ? ladder[*prev] : 0.0;
            context.rebuffer_s = rebuffer;
            EXPECT_EQ(model.segment_qoe(rungs, level, prev, vibration,
                                        rebuffer),
                      model.segment_qoe(context))
                << "rung " << level << " v " << vibration << " rebuffer "
                << rebuffer;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace eacs::qoe
