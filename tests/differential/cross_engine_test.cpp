// Cross-engine agreement: the fleet (sim::run_fleet) against the rich engine
// (player::SessionEngine) on the one configuration where both model the same
// session exactly.
//
// The fleet side is one session on one cell in one region, with every
// procedural swing turned off (capacity_spread = capacity_sway =
// signal_swing_db = 0) and the vibration rung cap disabled, so the cell is a
// constant-capacity link at a constant signal. Quasi-stationary processor
// sharing is exact for a lone session. The rich side is a PlayerSimulator on
// a constant trace at that capacity and signal, with the fleet's buffer
// threshold, startup buffer and bandwidth window, driven by a test-local
// policy that applies the fleet's throughput rule. Both engines share the
// drain rule and the harmonic-mean estimator (player::drain_buffer,
// eacs::harmonic_mean), so rung choices agree to the last bit, and rebuffer
// and startup agree to a few ulps (the rich link integrates its trace
// piecewise; the fleet divides size by rate).
//
// The terms where the engines differ, each named and handled here:
//  * Throttle-wait playback energy. The fleet never prices playback while a
//    session is throttled above the buffer threshold; the rich engine prices
//    every played second. The energy check pins this term exactly: on a
//    one-rung ladder, rich energy == fleet energy + playback_power(rung) x
//    the sum of the kThrottleWait values.
//  * Playback bitrate during a download. The fleet prices the playback that
//    overlaps a download at the bitrate being downloaded, not the bitrate
//    being played; while a session ramps up it over-prices by up to 0.05 J
//    on the default ladder (0.025 J at 3.3 Mbps, 0.053 J at 9.9 and 20 Mbps,
//    none at 0.3 Mbps). A one-rung ladder makes the two bitrates equal,
//    which is why the energy check runs on one.
//  * Stall counts. The fleet counts one stall per stalled drain; the rich
//    engine counts one per stalled segment. Stall counts are not compared;
//    stall time is.
//  * Vibration. The fleet draws one level per session; the rich engine
//    estimates it from accelerometer samples. QoE prices vibration, so QoE
//    is not compared.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "eacs/player/player.h"
#include "eacs/player/session_engine.h"
#include "eacs/power/model.h"
#include "eacs/sim/cell_network.h"
#include "eacs/sim/fleet.h"
#include "eacs/sim/metrics.h"
#include "../test_helpers.h"

namespace eacs::sim {
namespace {

/// The fleet's throughput rule (RegionSim::throughput_level, rung cap off):
/// the highest rung at most `safety` x the harmonic-mean estimate; rung 0
/// before any sample.
class FleetThroughputRule final : public player::AbrPolicy {
 public:
  explicit FleetThroughputRule(double safety) : safety_(safety) {}

  std::string name() const override { return "fleet-throughput"; }

  std::size_t choose_level(const player::AbrContext& context) override {
    if (context.bandwidth->observations() == 0) return 0;
    const double estimate = context.bandwidth->estimate();
    const media::BitrateLadder& ladder = context.manifest->ladder();
    for (std::size_t level = ladder.highest_level(); level > 0; --level) {
      if (ladder.bitrate(level) <= safety_ * estimate) return level;
    }
    return 0;
  }

 private:
  double safety_;
};

FleetConfig one_session_fleet(double capacity_mbps,
                              std::vector<double> ladder_mbps) {
  FleetConfig config;
  config.network.num_cells = 1;
  config.network.mean_capacity_mbps = capacity_mbps;
  config.network.capacity_spread = 0.0;
  config.network.capacity_sway = 0.0;
  config.network.signal_swing_db = 0.0;
  config.regions = 1;
  config.num_sessions = 1;
  config.ladder_mbps = std::move(ladder_mbps);
  config.vibration_cap_threshold = std::numeric_limits<double>::infinity();
  return config;
}

struct RichRun {
  player::PlaybackResult result;
  double throttle_wait_s = 0.0;  ///< sum of the kThrottleWait values
};

/// The same session on the rich engine.
RichRun rich_twin(const FleetConfig& config) {
  std::vector<media::BitrateRung> rungs;
  for (const double mbps : config.ladder_mbps) rungs.push_back({mbps, ""});
  const double segment_s = config.segment_duration_s;
  const media::VideoManifest manifest(
      "cross-engine",
      segment_s * static_cast<double>(config.segments_per_session), segment_s,
      media::BitrateLadder(std::move(rungs)));
  const CellNetwork network(config.network);
  const double signal = network.signal_dbm(0, 0, 0.0);
  // The margin covers the slowest run here: 30 two-megabit segments at
  // 0.3 Mbps take 200 s.
  const trace::SessionTraces session = eacs::testing::make_session(
      manifest.total_duration_s(), config.network.mean_capacity_mbps, signal,
      0.0, 400.0);

  player::PlayerConfig player;
  player.buffer_threshold_s = config.buffer_threshold_s;
  player.startup_buffer_s = config.startup_buffer_s;
  player.bandwidth_window = config.bandwidth_window;
  const player::PlayerSimulator simulator(manifest, player);
  FleetThroughputRule policy(config.abr_safety);
  player::SessionTimeline timeline;
  RichRun run{simulator.run(policy, session, &timeline)};
  for (const player::SessionEvent& event : timeline.events()) {
    if (event.type == player::SessionEventType::kThrottleWait) {
      run.throttle_wait_s += event.value;
    }
  }
  return run;
}

void expect_relative(double fleet, double rich, double tolerance,
                     const std::string& what) {
  EXPECT_LE(std::abs(fleet - rich),
            tolerance * std::max(std::abs(fleet), std::abs(rich)))
      << what << ": fleet " << fleet << " vs rich " << rich;
}

constexpr double kCapacitiesMbps[] = {0.3, 3.3, 9.9, 20.0};

TEST(CrossEngineTest, OneSessionOnOneCellAgreesOnRungsRebufferAndStartup) {
  for (const double capacity : kCapacitiesMbps) {
    const FleetConfig config =
        one_session_fleet(capacity, FleetConfig{}.ladder_mbps);
    const FleetMetrics fleet = run_fleet(config);
    ASSERT_EQ(fleet.sessions, 1U);
    const RichRun rich = rich_twin(config);
    ASSERT_EQ(rich.result.tasks.size(), config.segments_per_session);
    const std::string at = "capacity " + std::to_string(capacity);

    EXPECT_EQ(fleet.bitrate_mbps.mean(), rich.result.mean_bitrate_mbps()) << at;
    expect_relative(fleet.rebuffer_s.mean(), rich.result.total_rebuffer_s,
                    1e-12, "rebuffer at " + at);
    expect_relative(fleet.startup_s.mean(), rich.result.startup_delay_s, 1e-12,
                    "startup at " + at);
  }
}

TEST(CrossEngineTest, EnergyDiffersExactlyByUnpricedThrottleWaitPlayback) {
  // One rung, so playback is priced at the played bitrate on both sides and
  // the only remaining term is the playback the fleet skips while throttled.
  constexpr double kRungMbps = 1.0;
  const power::PowerModel power_model(FleetConfig{}.power);
  for (const double capacity : kCapacitiesMbps) {
    const FleetConfig config = one_session_fleet(capacity, {kRungMbps});
    const FleetMetrics fleet = run_fleet(config);
    ASSERT_EQ(fleet.sessions, 1U);
    const RichRun rich = rich_twin(config);
    const std::string at = "capacity " + std::to_string(capacity);

    const double fleet_j = fleet.energy_j.mean();
    const double rich_j = session_energy_j(rich.result, power_model);
    const double unpriced_j =
        power_model.playback_power(kRungMbps) * rich.throttle_wait_s;
    expect_relative(fleet_j + unpriced_j, rich_j, 1e-9, "energy at " + at);
    // Faster than the rung, the buffer fills and the term is real.
    if (capacity > kRungMbps) {
      EXPECT_GT(rich.throttle_wait_s, 0.0) << at;
    }
  }
}

}  // namespace
}  // namespace eacs::sim
