#include "eacs/power/model.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace eacs::power {
namespace {

TEST(PowerModelTest, Fig1aEndpointsReproduced) {
  // Fig. 1(a): downloading 100 MB costs ~49 J at -90 dBm and ~193 J at
  // -115 dBm.
  const PowerModel model;
  EXPECT_NEAR(model.download_energy(100.0, -90.0), 49.0, 1.0);
  EXPECT_NEAR(model.download_energy(100.0, -115.0), 193.0, 6.0);
}

TEST(PowerModelTest, EnergyPerMbMonotoneInWeakness) {
  const PowerModel model;
  double prev = 0.0;
  for (double s : {-90.0, -95.0, -100.0, -105.0, -110.0, -115.0}) {
    const double e = model.energy_per_mb(s);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(PowerModelTest, EnergyPerMbClamped) {
  const PowerModel model;
  EXPECT_DOUBLE_EQ(model.energy_per_mb(-40.0), model.params().e_min_j_per_mb);
  EXPECT_DOUBLE_EQ(model.energy_per_mb(-160.0), model.params().e_max_j_per_mb);
}

TEST(PowerModelTest, DownloadEnergyLinearInSize) {
  const PowerModel model;
  const double one = model.download_energy(1.0, -100.0);
  EXPECT_NEAR(model.download_energy(10.0, -100.0), 10.0 * one, 1e-9);
  EXPECT_DOUBLE_EQ(model.download_energy(0.0, -100.0), 0.0);
  EXPECT_DOUBLE_EQ(model.download_energy(-5.0, -100.0), 0.0);
}

TEST(PowerModelTest, DownloadPowerConsistentWithPerByteEnergy) {
  // e(s) [J/MB] * rate [MB/s] must equal power [W]; moving X MB at that rate
  // then costs the same energy either way.
  const PowerModel model;
  const double s = -95.0;
  const double throughput = 16.0;  // Mbps -> 2 MB/s
  const double watts = model.download_power(s, throughput);
  const double seconds = 50.0;
  const double mb_moved = throughput / 8.0 * seconds;
  EXPECT_NEAR(watts * seconds, model.download_energy(mb_moved, s), 1e-9);
  EXPECT_DOUBLE_EQ(model.download_power(s, 0.0), 0.0);
}

TEST(PowerModelTest, PlaybackPowerGrowsWithBitrate) {
  const PowerModel model;
  EXPECT_GT(model.playback_power(5.8), model.playback_power(0.1));
  // But the screen/base dominates: the spread over the ladder is small.
  EXPECT_LT(model.playback_power(5.8) - model.playback_power(0.1), 0.1);
  EXPECT_DOUBLE_EQ(model.playback_power(-1.0), model.playback_power(0.0));
}

TEST(PowerModelTest, TaskEnergyComposition) {
  const PowerModel model;
  TaskEnergyInput input;
  input.size_mb = 2.0;
  input.bitrate_mbps = 3.0;
  input.signal_dbm = -90.0;
  input.play_s = 2.0;
  input.rebuffer_s = 0.0;
  const double expected =
      model.download_energy(2.0, -90.0) + model.playback_power(3.0) * 2.0;
  EXPECT_DOUBLE_EQ(model.task_energy(input), expected);
}

TEST(PowerModelTest, RebufferingAddsPauseEnergy) {
  const PowerModel model;
  TaskEnergyInput stalled;
  stalled.size_mb = 2.0;
  stalled.bitrate_mbps = 3.0;
  stalled.signal_dbm = -90.0;
  stalled.play_s = 2.0;
  stalled.rebuffer_s = 1.5;
  TaskEnergyInput clean = stalled;
  clean.rebuffer_s = 0.0;
  EXPECT_NEAR(model.task_energy(stalled) - model.task_energy(clean),
              model.pause_power() * 1.5, 1e-9);
}

TEST(PowerModelTest, TailEnergyExtension) {
  PowerModelParams params;
  params.tail_energy_j = 0.8;
  const PowerModel model(params);
  TaskEnergyInput input;
  input.size_mb = 1.0;
  input.signal_dbm = -90.0;
  input.play_s = 2.0;
  input.download_bursts = 3;
  PowerModelParams no_tail = params;
  no_tail.tail_energy_j = 0.0;
  EXPECT_NEAR(model.task_energy(input) - PowerModel(no_tail).task_energy(input),
              3 * 0.8, 1e-9);
}

// task_energy(input, e) is the one body of Eqs. 8-10: a caller that
// evaluates e(s) once per signal (a cost table, compute_metrics) must get
// the bits of task_energy(input) and of the composition from the public
// terms, also where a clamp of e(s), the tail term or a size <= 0 binds.
TEST(PowerModelTest, SharedEnergyPerMbKeepsTheBits) {
  for (const double tail_j : {0.0, 0.3}) {
    PowerModelParams params;
    params.tail_energy_j = tail_j;
    const PowerModel model(params);
    int cases = 0;
    for (const double signal_dbm : {-40.0, -90.0, -115.0, -160.0}) {
      const double j_per_mb = model.energy_per_mb(signal_dbm);
      for (const double size_mb : {-1.0, 0.0, 0.5, 3.0}) {
        for (const double play_s : {0.0, 2.0}) {
          for (const double rebuffer_s : {0.0, 1.5}) {
            for (const std::size_t bursts : {1U, 3U}) {
              TaskEnergyInput input;
              input.size_mb = size_mb;
              input.bitrate_mbps = 2.5;
              input.signal_dbm = signal_dbm;
              input.play_s = play_s;
              input.rebuffer_s = rebuffer_s;
              input.download_bursts = bursts;
              double composed = model.download_energy(size_mb, signal_dbm);
              if (play_s > 0.0) composed += model.playback_power(2.5) * play_s;
              if (rebuffer_s > 0.0) composed += model.pause_power() * rebuffer_s;
              if (tail_j > 0.0 && size_mb > 0.0) {
                composed += tail_j * static_cast<double>(bursts);
              }
              const double shared = model.task_energy(input, j_per_mb);
              EXPECT_EQ(shared, model.task_energy(input))
                  << signal_dbm << " dBm, " << size_mb << " MB, tail " << tail_j;
              EXPECT_EQ(shared, composed)
                  << signal_dbm << " dBm, " << size_mb << " MB, tail " << tail_j;
              ++cases;
            }
          }
        }
      }
    }
    EXPECT_EQ(cases, 128);
  }
  // The grid reaches both clamps of e(s).
  const PowerModel model;
  EXPECT_EQ(model.energy_per_mb(-40.0), model.params().e_min_j_per_mb);
  EXPECT_EQ(model.energy_per_mb(-160.0), model.params().e_max_j_per_mb);
}

TEST(PowerModelTest, WholeSessionEnergyInTableVIRange) {
  // A 300 s clip at -90 dBm lands in Table VI's 597..708 J window and the
  // spread across the ladder is ~110 J.
  const PowerModel model;
  const auto energy_for = [&](double bitrate) {
    TaskEnergyInput input;
    input.size_mb = bitrate * 300.0 / 8.0;
    input.bitrate_mbps = bitrate;
    input.signal_dbm = -90.0;
    input.play_s = 300.0;
    return model.task_energy(input);
  };
  const double lowest = energy_for(0.1);
  const double highest = energy_for(5.8);
  EXPECT_NEAR(lowest, 597.0, 25.0);
  EXPECT_NEAR(highest, 708.0, 25.0);
  EXPECT_GT(highest, lowest + 80.0);
}

TEST(PowerModelTest, InvalidParamsThrow) {
  PowerModelParams params;
  params.e_ref_j_per_mb = 0.0;
  EXPECT_THROW(PowerModel{params}, std::invalid_argument);
  PowerModelParams negative_tail;
  negative_tail.tail_energy_j = -1.0;
  EXPECT_THROW(PowerModel{negative_tail}, std::invalid_argument);

  // Every field must be finite: a NaN k_per_db or s_ref_dbm made every task
  // energy NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  double PowerModelParams::*const fields[] = {
      &PowerModelParams::e_ref_j_per_mb, &PowerModelParams::s_ref_dbm,
      &PowerModelParams::k_per_db,       &PowerModelParams::e_min_j_per_mb,
      &PowerModelParams::e_max_j_per_mb, &PowerModelParams::p_base_w,
      &PowerModelParams::c0_w,           &PowerModelParams::c1_w_per_mbps,
      &PowerModelParams::p_pause_w,      &PowerModelParams::tail_energy_j};
  for (double PowerModelParams::*const field : fields) {
    for (const double bad : {nan, inf, -inf}) {
      PowerModelParams p;
      p.*field = bad;
      EXPECT_THROW(PowerModel{p}, std::invalid_argument) << bad;
    }
  }
  // Reversed clamp bounds are undefined in std::clamp; they returned the
  // ceiling at every signal.
  PowerModelParams reversed;
  reversed.e_min_j_per_mb = 9.0;
  reversed.e_max_j_per_mb = 8.0;
  EXPECT_THROW(PowerModel{reversed}, std::invalid_argument);
  // A negative pause power earned energy back during stalls.
  PowerModelParams earning;
  earning.p_pause_w = -1.8;
  EXPECT_THROW(PowerModel{earning}, std::invalid_argument);
  // The message names the field.
  try {
    PowerModelParams p;
    p.k_per_db = nan;
    (void)PowerModel{p};
    ADD_FAILURE() << "k_per_db = NaN accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("k_per_db"), std::string::npos)
        << e.what();
  }
  // Equal bounds pin e(s) to one value; a zero pause power is a free stall.
  PowerModelParams flat;
  flat.e_min_j_per_mb = flat.e_max_j_per_mb = 0.5;
  flat.p_pause_w = 0.0;
  EXPECT_NO_THROW(PowerModel{flat});
  EXPECT_NO_THROW(PowerModel{});
}

}  // namespace
}  // namespace eacs::power
