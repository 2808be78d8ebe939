#include "eacs/core/prefetch.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "../test_helpers.h"

namespace eacs::core {
namespace {

/// A signal trace alternating strong/weak phases and a constant-rate link.
struct AlternatingFixture {
  media::VideoManifest manifest = eacs::testing::make_manifest(120.0, 2.0);
  trace::TimeSeries signal;
  trace::TimeSeries throughput;

  AlternatingFixture() {
    // 30 s strong (-85), 30 s weak (-115), repeating; plenty of bandwidth.
    for (double t = 0.0; t <= 400.0; t += 1.0) {
      const bool strong = static_cast<int>(t / 30.0) % 2 == 0;
      signal.append(t, strong ? -85.0 : -115.0);
      throughput.append(t, 20.0);
    }
  }

  std::vector<std::size_t> constant_plan(std::size_t level) const {
    return std::vector<std::size_t>(manifest.num_segments(), level);
  }
};

TEST(PrefetchTest, InvalidInputsThrow) {
  AlternatingFixture fixture;
  EXPECT_THROW(PrefetchScheduler(fixture.manifest, {0, 1},  // wrong length
                                 fixture.signal, fixture.throughput,
                                 power::PowerModel{}),
               std::invalid_argument);
  // NaN and +inf would reach optimize()'s slot count; each bad cap is
  // rejected by name.
  for (const double cap : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0}) {
    try {
      PrefetchScheduler scheduler(fixture.manifest, fixture.constant_plan(5),
                                  fixture.signal, fixture.throughput,
                                  power::PowerModel{}, cap);
      ADD_FAILURE() << "no throw at buffer_cap_s " << cap;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("buffer_cap_s"), std::string::npos)
          << error.what();
    }
  }
}

TEST(PrefetchTest, AsapIsFeasibleOnFastLink) {
  AlternatingFixture fixture;
  const power::PowerModel power_model;
  PrefetchScheduler scheduler(fixture.manifest, fixture.constant_plan(7),
                              fixture.signal, fixture.throughput, power_model);
  const auto plan = scheduler.asap();
  EXPECT_TRUE(plan.feasible());
  ASSERT_EQ(plan.downloads.size(), fixture.manifest.num_segments());
  // Sequential, deadline-respecting downloads.
  for (std::size_t i = 1; i < plan.downloads.size(); ++i) {
    EXPECT_GE(plan.downloads[i].start_s, plan.downloads[i - 1].end_s - 1e-9);
    EXPECT_LE(plan.downloads[i].end_s, plan.downloads[i].deadline_s + 1e-9);
  }
}

TEST(PrefetchTest, OptimizedNeverWorseThanAsap) {
  AlternatingFixture fixture;
  const power::PowerModel power_model;
  for (std::size_t level : {3UL, 7UL, 13UL}) {
    PrefetchScheduler scheduler(fixture.manifest, fixture.constant_plan(level),
                                fixture.signal, fixture.throughput, power_model);
    const auto asap = scheduler.asap();
    const auto optimized = scheduler.optimize();
    EXPECT_LE(optimized.radio_energy_j, asap.radio_energy_j + 1e-6)
        << "level " << level;
    EXPECT_TRUE(optimized.feasible());
  }
}

TEST(PrefetchTest, SchedulerExploitsStrongSignalWindows) {
  // With alternating signal, deferring/batching into strong windows should
  // cut a visible share of the radio energy vs ASAP.
  AlternatingFixture fixture;
  const power::PowerModel power_model;
  PrefetchScheduler scheduler(fixture.manifest, fixture.constant_plan(10),
                              fixture.signal, fixture.throughput, power_model);
  const auto asap = scheduler.asap();
  const auto optimized = scheduler.optimize();
  EXPECT_LT(optimized.radio_energy_j, 0.9 * asap.radio_energy_j);
  // The optimised plan's downloads cluster in strong windows: the mean
  // signal during scheduled downloads is better than during ASAP's.
  const auto mean_signal = [&](const PrefetchPlan& plan) {
    double total = 0.0;
    for (const auto& download : plan.downloads) {
      total += fixture.signal.mean_over(download.start_s,
                                        std::max(download.end_s,
                                                 download.start_s + 1e-6));
    }
    return total / static_cast<double>(plan.downloads.size());
  };
  EXPECT_GT(mean_signal(optimized), mean_signal(asap) + 5.0);
}

TEST(PrefetchTest, ConstantSignalLeavesNothingToGain) {
  const auto session = eacs::testing::make_session(60.0, 20.0, -95.0, 0.0);
  const auto manifest = eacs::testing::make_manifest(60.0, 2.0);
  const power::PowerModel power_model;
  PrefetchScheduler scheduler(manifest,
                              std::vector<std::size_t>(manifest.num_segments(), 7),
                              session.signal_dbm, session.throughput_mbps,
                              power_model);
  const auto asap = scheduler.asap();
  const auto optimized = scheduler.optimize();
  EXPECT_NEAR(optimized.radio_energy_j, asap.radio_energy_j,
              asap.radio_energy_j * 0.01);
}

TEST(PrefetchTest, BufferCapLimitsPrefetchDepth) {
  AlternatingFixture fixture;
  const power::PowerModel power_model;
  // Tight cap: little room to shift downloads.
  PrefetchScheduler tight(fixture.manifest, fixture.constant_plan(10),
                          fixture.signal, fixture.throughput, power_model, 10.0);
  PrefetchScheduler loose(fixture.manifest, fixture.constant_plan(10),
                          fixture.signal, fixture.throughput, power_model, 60.0);
  // A looser buffer gives the scheduler more freedom: at least as good.
  EXPECT_LE(loose.optimize().radio_energy_j,
            tight.optimize().radio_energy_j + 1e-6);
  // And the cap is respected: completion never earlier than allowed.
  const auto plan = tight.optimize();
  for (const auto& download : plan.downloads) {
    const double earliest =
        2.0 + (static_cast<double>(download.segment_index) + 1.0) * 2.0 - 10.0;
    EXPECT_GE(download.end_s, std::max(0.0, earliest) - 1.0 - 1e-6);
  }
}

// Pins the slot grid and the startup latency by literal values: the radio
// energy of both schedules of the alternating fixture's level-10 plan.
TEST(PrefetchTest, AlternatingSignalPlanEnergyIsPinned) {
  AlternatingFixture fixture;
  PrefetchScheduler scheduler(fixture.manifest, fixture.constant_plan(10),
                              fixture.signal, fixture.throughput,
                              power::PowerModel{});
  EXPECT_NEAR(scheduler.asap().radio_energy_j, 36.61401050139731, 1e-9);
  EXPECT_NEAR(scheduler.optimize().radio_energy_j, 19.920666106421642, 1e-9);
}

TEST(PrefetchTest, SlowLinkFallsBackWithStalls) {
  // 1 Mbps link, 5.8 Mbps segments: infeasible deadlines; the scheduler
  // must still return a complete (late) plan rather than fail.
  const auto manifest = eacs::testing::make_manifest(30.0, 2.0);
  trace::TimeSeries signal;
  trace::TimeSeries throughput;
  for (double t = 0.0; t <= 400.0; t += 1.0) {
    signal.append(t, -100.0);
    throughput.append(t, 1.0);
  }
  PrefetchScheduler scheduler(manifest,
                              std::vector<std::size_t>(manifest.num_segments(), 13),
                              signal, throughput, power::PowerModel{});
  const auto plan = scheduler.optimize();
  EXPECT_EQ(plan.downloads.size(), manifest.num_segments());
  EXPECT_FALSE(plan.feasible());
  EXPECT_GT(plan.stall_s, 0.0);
}

}  // namespace
}  // namespace eacs::core
