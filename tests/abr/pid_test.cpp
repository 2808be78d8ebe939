#include "eacs/abr/pid.h"

#include <gtest/gtest.h>

#include <vector>

#include "eacs/player/player.h"
#include "../test_helpers.h"

namespace eacs::abr {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;

struct Fixture {
  media::VideoManifest manifest = make_manifest(60.0, 2.0);
  net::HarmonicMeanEstimator estimator{20};

  player::AbrContext context(double buffer_s) {
    player::AbrContext ctx;
    ctx.segment_index = 10;
    ctx.num_segments = manifest.num_segments();
    ctx.buffer_s = buffer_s;
    ctx.prev_level = 7;
    ctx.manifest = &manifest;
    ctx.bandwidth = &estimator;
    return ctx;
  }
};

TEST(PidTest, NoEstimateStartsLowest) {
  Fixture fixture;
  PidController policy;
  EXPECT_EQ(policy.choose_level(fixture.context(0.0)), 0U);
  EXPECT_EQ(policy.name(), "PID");
}

TEST(PidTest, BufferAboveSetpointRaisesRate) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(3.0);
  PidController policy;
  const auto starved = policy.choose_level(fixture.context(5.0));
  policy.reset();
  const auto cushioned = policy.choose_level(fixture.context(30.0));
  EXPECT_GT(cushioned, starved);
}

TEST(PidTest, AtSetpointTracksBandwidth) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(3.0);
  PidController policy;
  // Zero error: factor ~1 -> highest rate <= 3.0 is level 10 (3.0).
  EXPECT_EQ(policy.choose_level(fixture.context(20.0)), 10U);
}

TEST(PidTest, IntegralWindupIsBounded) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(10.0);
  PidController policy;
  // Hammer the controller with a persistently empty buffer, then recover:
  // the clamped integral must not pin the output at the floor forever.
  for (int i = 0; i < 200; ++i) (void)policy.choose_level(fixture.context(0.5));
  std::size_t recovered = 0;
  for (int i = 0; i < 200; ++i) {
    recovered = policy.choose_level(fixture.context(30.0));
  }
  EXPECT_GE(recovered, 8U);
}

TEST(PidTest, ResetClearsState) {
  Fixture fixture;
  for (int i = 0; i < 20; ++i) fixture.estimator.observe(5.0);
  PidController policy;
  for (int i = 0; i < 50; ++i) (void)policy.choose_level(fixture.context(35.0));
  policy.reset();
  PidController fresh;
  EXPECT_EQ(policy.choose_level(fixture.context(20.0)),
            fresh.choose_level(fixture.context(20.0)));
}

// Pins the gains and limits by literal values: a 0.05 Mbps-step ladder turns
// each term of the controller into a visible rung. At a 10 Mbps estimate the
// buffers below sit at the setpoint, push kp/ki/kd together, hit the upper and
// lower factor clamps, wind the integral onto its limit, and read that limit
// back once the error is 0.
TEST(PidTest, ChoiceSequenceIsPinned) {
  std::vector<media::BitrateRung> rungs;
  for (int i = 1; i <= 400; ++i) rungs.push_back({0.05 * i, ""});
  const media::VideoManifest manifest("pid", 60.0, 2.0,
                                      media::BitrateLadder(std::move(rungs)));
  net::HarmonicMeanEstimator estimator(20);
  for (int i = 0; i < 20; ++i) estimator.observe(10.0);
  player::AbrContext ctx;
  ctx.num_segments = manifest.num_segments();
  ctx.manifest = &manifest;
  ctx.bandwidth = &estimator;

  PidController policy;
  const double buffers[] = {20.0, 24.0, 40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20.0, 20.0};
  // Mbps: 10.00, 14.05, 15.00, then 2.50 five times, 15.00, 8.80.
  const std::vector<std::size_t> want = {199, 280, 299, 49, 49, 49, 49, 49, 299, 175};
  std::vector<std::size_t> got;
  for (const double buffer : buffers) {
    ctx.buffer_s = buffer;
    got.push_back(policy.choose_level(ctx));
  }
  EXPECT_EQ(got, want);
}

TEST(PidTest, StabilisesOnConstantNetwork) {
  player::PlayerSimulator simulator(make_manifest(240.0, 2.0));
  PidController policy;
  const auto result = simulator.run(policy, make_session(240.0, 8.0));
  EXPECT_DOUBLE_EQ(result.total_rebuffer_s, 0.0);
  // Settles: few switches in the second half.
  std::size_t late_switches = 0;
  for (std::size_t i = result.tasks.size() / 2 + 1; i < result.tasks.size(); ++i) {
    if (result.tasks[i].level != result.tasks[i - 1].level) ++late_switches;
  }
  EXPECT_LT(late_switches, result.tasks.size() / 8);
}

}  // namespace
}  // namespace eacs::abr
