#include "eacs/qoe/session_qoe.h"

#include <gtest/gtest.h>

namespace eacs::qoe {
namespace {

player::TaskRecord make_task(std::size_t index, double bitrate, double rebuffer = 0.0,
                             double vibration = 0.0) {
  player::TaskRecord task;
  task.segment_index = index;
  task.bitrate_mbps = bitrate;
  task.duration_s = 2.0;
  task.rebuffer_s = rebuffer;
  task.vibration = vibration;
  return task;
}

player::PlaybackResult steady_run(std::size_t segments, double bitrate) {
  player::PlaybackResult result;
  for (std::size_t i = 0; i < segments; ++i) {
    result.tasks.push_back(make_task(i, bitrate));
  }
  result.startup_delay_s = 1.0;
  result.session_end_s = 1.0 + 2.0 * static_cast<double>(segments);
  return result;
}

TEST(SessionQoeTest, EmptyRunScoresFloor) {
  const auto breakdown = session_qoe({}, QoeModel{});
  EXPECT_DOUBLE_EQ(breakdown.mos, 1.0);
}

TEST(SessionQoeTest, SteadyRunMatchesPerTaskQuality) {
  const QoeModel model;
  const auto result = steady_run(60, 3.0);
  const auto breakdown = session_qoe(result, model);
  // Constant quality: recency weighting changes nothing; only the small
  // startup penalty applies.
  EXPECT_NEAR(breakdown.base_mos, model.original_quality(3.0), 1e-9);
  EXPECT_NEAR(breakdown.mos,
              model.original_quality(3.0) - breakdown.startup_penalty, 1e-9);
  EXPECT_DOUBLE_EQ(breakdown.stall_penalty, 0.0);
  EXPECT_DOUBLE_EQ(breakdown.oscillation_penalty, 0.0);
}

TEST(SessionQoeTest, RecencyWeightsTheEndingMore) {
  const QoeModel model;
  // Bad start, good ending vs. good start, bad ending.
  player::PlaybackResult improves;
  player::PlaybackResult degrades;
  for (std::size_t i = 0; i < 60; ++i) {
    improves.tasks.push_back(make_task(i, i < 30 ? 0.375 : 5.8));
    degrades.tasks.push_back(make_task(i, i < 30 ? 5.8 : 0.375));
  }
  const auto up = session_qoe(improves, model);
  const auto down = session_qoe(degrades, model);
  EXPECT_GT(up.mos, down.mos + 0.3);
}

TEST(SessionQoeTest, StallEventsPenalisedBeyondDuration) {
  const QoeModel model;
  auto one_long = steady_run(60, 3.0);
  one_long.tasks[30].rebuffer_s = 4.0;
  one_long.rebuffer_events = 1;
  auto many_short = steady_run(60, 3.0);
  for (std::size_t i = 10; i < 50; i += 10) {
    many_short.tasks[i].rebuffer_s = 1.0;
  }
  many_short.rebuffer_events = 4;
  const auto long_breakdown = session_qoe(one_long, model);
  const auto short_breakdown = session_qoe(many_short, model);
  // Same total stall time; more events cost more at the session level.
  EXPECT_GT(short_breakdown.stall_penalty, long_breakdown.stall_penalty + 0.2);
}

TEST(SessionQoeTest, StartupPenaltyCapped) {
  const QoeModel model;
  auto slow_start = steady_run(60, 3.0);
  slow_start.startup_delay_s = 300.0;
  const auto breakdown = session_qoe(slow_start, model);
  EXPECT_DOUBLE_EQ(breakdown.startup_penalty, kStartupPenaltyCap);
}

TEST(SessionQoeTest, OscillationPenalisedSeparately) {
  const QoeModel model;
  auto oscillating = steady_run(60, 3.0);
  for (std::size_t i = 0; i < oscillating.tasks.size(); ++i) {
    oscillating.tasks[i].bitrate_mbps = (i % 2 == 0) ? 3.0 : 2.3;
  }
  oscillating.switch_count = oscillating.tasks.size() - 1;
  const auto steady = session_qoe(steady_run(60, 3.0), model);
  const auto wobbly = session_qoe(oscillating, model);
  EXPECT_GT(wobbly.oscillation_penalty, 0.25);
  EXPECT_LT(wobbly.mos, steady.mos);
}

// Pins the six aggregation weights by literal values: one playback whose
// bitrate steps through five rungs (so recency weighting and oscillation
// count), scored with its startup and stall-event counts under the caps and
// again over them.
TEST(SessionQoeTest, FixedPlaybackBreakdownIsPinned) {
  const QoeModel model;
  player::PlaybackResult result;
  const double rates[] = {0.375, 1.0, 2.3, 3.0, 5.8};
  for (std::size_t i = 0; i < 60; ++i) {
    const double rebuffer = i == 20 ? 1.5 : (i == 41 ? 0.5 : 0.0);
    result.tasks.push_back(make_task(i, rates[(i / 6) % 5], rebuffer));
  }
  result.switch_count = 9;
  result.startup_delay_s = 3.0;
  result.rebuffer_events = 2;
  const auto under = session_qoe(result, model);
  EXPECT_NEAR(under.base_mos, 4.1262004175002041, 1e-12);
  EXPECT_NEAR(under.startup_penalty, 0.15, 1e-12);
  EXPECT_NEAR(under.stall_penalty, 0.3, 1e-12);
  EXPECT_NEAR(under.oscillation_penalty, 0.3 * 9.0 / 59.0, 1e-12);
  EXPECT_NEAR(under.mos, 3.6304377056357975, 1e-12);

  result.startup_delay_s = 20.0;
  result.rebuffer_events = 9;
  const auto capped = session_qoe(result, model);
  EXPECT_NEAR(capped.startup_penalty, 0.5, 1e-12);
  EXPECT_NEAR(capped.stall_penalty, 1.0, 1e-12);
  EXPECT_NEAR(capped.mos, 2.5804377056357972, 1e-12);
}

TEST(SessionQoeTest, BoundedToMosRange) {
  const QoeModel model;
  auto terrible = steady_run(10, 0.1);
  terrible.startup_delay_s = 100.0;
  terrible.rebuffer_events = 50;
  for (auto& task : terrible.tasks) task.rebuffer_s = 5.0;
  const auto breakdown = session_qoe(terrible, model);
  EXPECT_GE(breakdown.mos, 1.0);
  EXPECT_LE(breakdown.mos, 5.0);
}

}  // namespace
}  // namespace eacs::qoe
