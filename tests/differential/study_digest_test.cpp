// Pinned digests of the four fault studies (DESIGN §6).
//
// Each study runs on a small grid at jobs 1 and at jobs 4. Every numeric
// field of its result is written as a C99 hex float (%a: every bit of every
// double) and the text is hashed with 64-bit FNV-1a. Two checks follow:
//  * the jobs-4 dump equals the jobs-1 dump, line for line;
//  * the hash equals a pinned constant, so a change to a study's seed rule,
//    grid flattening, fold order or totals arithmetic cannot pass unnoticed.
// The constants were recorded from the studies as they stand; a deliberate
// change to a study's numbers must re-pin them and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "eacs/sim/cdn_fault_study.h"
#include "eacs/sim/fault_study.h"
#include "eacs/sim/fleet_fault_study.h"
#include "eacs/sim/sensor_fault_study.h"

namespace eacs::sim {
namespace {

std::string hex(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

// Names the first differing line, then checks the pinned hash.
void expect_digest(const std::string& serial, const std::string& parallel,
                   std::uint64_t pinned) {
  std::istringstream a(serial);
  std::istringstream b(parallel);
  std::string line_a;
  std::string line_b;
  std::size_t line = 0;
  while (std::getline(a, line_a) && std::getline(b, line_b)) {
    ++line;
    ASSERT_EQ(line_a, line_b) << "jobs 1 vs 4: first divergence at line "
                              << line;
  }
  ASSERT_EQ(serial, parallel) << "jobs 1 vs 4: dumps differ in length";
  EXPECT_EQ(hex64(fnv1a(serial)), hex64(pinned))
      << "study digest moved; dump has " << serial.size() << " bytes";
}

// ---------------------------------------------------------------------------
// Link faults

std::string dump(const FaultStudyResult& r) {
  std::ostringstream out;
  for (const FaultCell& c : r.cells) {
    out << "cell " << c.algorithm << " outage=" << hex(c.outage_rate_per_min)
        << " fail=" << hex(c.failure_prob) << " qoe=" << hex(c.mean_qoe)
        << " energy=" << hex(c.total_energy_j)
        << " wasted=" << hex(c.wasted_energy_j)
        << " rebuffer=" << hex(c.rebuffer_s) << " retries=" << c.retries
        << " abandoned=" << c.abandoned_segments
        << " dqoe=" << hex(c.qoe_delta)
        << " denergy=" << hex(c.energy_delta_j)
        << " drebuffer=" << hex(c.rebuffer_delta_s) << "\n";
  }
  return out.str();
}

TEST(StudyDigestTest, LinkFaultStudy) {
  FaultStudyConfig config;
  config.outage_rates_per_min = {0.0, 1.0};
  config.failure_probs = {0.0, 0.1};
  config.evaluation.session_options.margin_s = 60.0;
  config.evaluation.exec.jobs = 1;
  const std::string serial = dump(run_fault_study(config));
  config.evaluation.exec.jobs = 4;
  expect_digest(serial, dump(run_fault_study(config)),
                0x23ef406424adc4c1ULL);
}

// ---------------------------------------------------------------------------
// Sensor faults

std::string dump(const SensorFaultStudyResult& r) {
  std::ostringstream out;
  for (const SensorFaultBaseline* b : {&r.clean_ours, &r.context_blind}) {
    out << "baseline " << b->algorithm << " qoe=" << hex(b->mean_qoe)
        << " energy=" << hex(b->total_energy_j)
        << " rebuffer=" << hex(b->rebuffer_s)
        << " bitrate=" << hex(b->mean_bitrate_mbps) << "\n";
  }
  for (const SensorFaultCell& c : r.cells) {
    out << "cell " << to_string(c.scenario) << " intensity="
        << hex(c.intensity) << " qoe=" << hex(c.mean_qoe)
        << " energy=" << hex(c.total_energy_j)
        << " rebuffer=" << hex(c.rebuffer_s)
        << " bitrate=" << hex(c.mean_bitrate_mbps)
        << " ctx_err=" << hex(c.mean_context_error)
        << " dqoe_clean=" << hex(c.qoe_delta_vs_clean)
        << " denergy_clean=" << hex(c.energy_delta_vs_clean_j)
        << " drebuffer_clean=" << hex(c.rebuffer_delta_vs_clean_s)
        << " dqoe_blind=" << hex(c.qoe_delta_vs_blind)
        << " denergy_blind=" << hex(c.energy_delta_vs_blind_j) << "\n";
  }
  return out.str();
}

TEST(StudyDigestTest, SensorFaultStudy) {
  SensorFaultStudyConfig config;
  config.scenarios = {SensorFaultScenario::kStuckAt,
                      SensorFaultScenario::kNanCorruption,
                      SensorFaultScenario::kSignalDropout,
                      SensorFaultScenario::kCombined};
  config.intensities = {0.25, 1.0};
  config.evaluation.session_options.margin_s = 60.0;
  config.evaluation.exec.jobs = 1;
  const std::string serial = dump(run_sensor_fault_study(config));
  config.evaluation.exec.jobs = 4;
  expect_digest(serial, dump(run_sensor_fault_study(config)),
                0x6e686d1f24d3bee4ULL);
}

// ---------------------------------------------------------------------------
// CDN faults

std::string dump(const CdnFaultStudyResult& r) {
  std::ostringstream out;
  out << "clean " << r.clean.algorithm << " qoe=" << hex(r.clean.mean_qoe)
      << " energy=" << hex(r.clean.total_energy_j)
      << " rebuffer=" << hex(r.clean.rebuffer_s)
      << " bitrate=" << hex(r.clean.mean_bitrate_mbps) << "\n";
  for (const CdnFaultCell& c : r.cells) {
    out << "cell " << to_string(c.family) << " intensity=" << hex(c.intensity)
        << " sources=" << c.sources << " qoe=" << hex(c.mean_qoe)
        << " energy=" << hex(c.total_energy_j)
        << " wasted=" << hex(c.wasted_energy_j)
        << " rebuffer=" << hex(c.rebuffer_s)
        << " bitrate=" << hex(c.mean_bitrate_mbps)
        << " retries=" << c.retries << " hedges=" << c.hedges
        << " failovers=" << c.failovers
        << " breaker=" << c.breaker_transitions
        << " dqoe_single=" << hex(c.qoe_delta_vs_single)
        << " denergy_single=" << hex(c.energy_delta_vs_single_j)
        << " drebuffer_single=" << hex(c.rebuffer_delta_vs_single_s)
        << " dqoe_clean=" << hex(c.qoe_delta_vs_clean)
        << " drebuffer_clean=" << hex(c.rebuffer_delta_vs_clean_s) << "\n";
  }
  return out.str();
}

TEST(StudyDigestTest, CdnFaultStudy) {
  CdnFaultStudyConfig config;
  config.families = {CdnFaultFamily::kErrorBursts, CdnFaultFamily::kCombined};
  config.intensities = {0.5, 1.0};
  config.source_counts = {1, 2};
  config.evaluation.session_options.margin_s = 60.0;
  config.evaluation.exec.jobs = 1;
  const std::string serial = dump(run_cdn_fault_study(config));
  config.evaluation.exec.jobs = 4;
  expect_digest(serial, dump(run_cdn_fault_study(config)),
                0x51406f96547a2270ULL);
}

// ---------------------------------------------------------------------------
// Fleet faults

void dump_running(std::ostringstream& out, const char* name,
                  const RunningStats& s) {
  const RunningStatsState st = s.state();
  out << " " << name << "=" << st.count << "/" << hex(st.mean) << "/"
      << hex(st.m2) << "/" << hex(st.sum) << "/" << hex(st.min) << "/"
      << hex(st.max);
}

void dump_reservoir(std::ostringstream& out, const char* name,
                    const ReservoirSampler& r) {
  out << " " << name << "=" << r.count();
  for (const double x : r.sample()) out << "," << hex(x);
}

void dump_planner(std::ostringstream& out, const core::CostStats& p) {
  out << " planner=" << p.qoe_model_evals << "/" << p.power_model_evals << "/"
      << p.edge_evals << "/" << p.tables_built << "/" << p.plans << "/"
      << p.cache_hits << "/" << p.cache_misses << "/" << p.cache_evictions;
}

void dump(std::ostringstream& out, const FleetMetrics& m) {
  out << " sessions=" << m.sessions << " events=" << m.events
      << " requests=" << m.requests << " handoffs=" << m.handoffs
      << " stalls=" << m.stall_events << " peak=" << m.peak_live_sessions
      << " escapes=" << m.escape_handoffs << " retries=" << m.backoff_retries
      << " abandoned=" << m.abandoned_sessions << " sheds=" << m.policy_sheds
      << " recoveries=" << m.policy_recoveries
      << " shed_decisions=" << m.shed_decisions
      << " degraded=" << hex(m.degraded_time_s)
      << " wasted=" << hex(m.wasted_energy_j);
  dump_planner(out, m.planner);
  dump_running(out, "qoe", m.qoe);
  dump_running(out, "energy", m.energy_j);
  dump_running(out, "bitrate", m.bitrate_mbps);
  dump_running(out, "rebuffer", m.rebuffer_s);
  dump_running(out, "startup", m.startup_s);
  dump_reservoir(out, "qoe_sample", m.qoe_sample);
  dump_reservoir(out, "energy_sample", m.energy_sample);
  dump_reservoir(out, "rebuffer_sample", m.rebuffer_sample);
  out << "\n";
  for (const FleetRegionMetrics& r : m.regions) {
    out << "  region " << r.region << " cells=" << r.first_cell << "+"
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
        << " median_energy=" << hex(r.median_energy_j);
    dump_planner(out, r.planner);
    out << "\n";
  }
}

std::string dump(const FleetFaultStudyResult& r) {
  std::ostringstream out;
  for (std::size_t p = 0; p < r.policies.size(); ++p) {
    out << "baseline policy=" << static_cast<int>(r.policies[p]);
    dump(out, r.baselines[p]);
  }
  for (const FleetFaultStudyCell& c : r.cells) {
    out << "cell " << to_string(c.scenario) << " intensity="
        << hex(c.intensity) << " policy=" << static_cast<int>(c.policy)
        << " dqoe=" << hex(c.qoe_delta_vs_clean)
        << " denergy=" << hex(c.energy_delta_vs_clean_j)
        << " drebuffer=" << hex(c.rebuffer_delta_vs_clean_s);
    dump(out, c.metrics);
  }
  return out.str();
}

TEST(StudyDigestTest, FleetFaultStudy) {
  FleetFaultStudyConfig config;
  config.fleet.network.num_cells = 8;
  config.fleet.num_sessions = 300;
  config.fleet.segments_per_session = 10;
  config.fleet.regions = 4;
  config.scenarios = {FleetFaultScenario::kCellOutages,
                      FleetFaultScenario::kCombined};
  config.intensities = {1.0};
  config.fleet.exec.jobs = 1;
  const std::string serial = dump(run_fleet_fault_study(config));
  config.fleet.exec.jobs = 4;
  expect_digest(serial, dump(run_fleet_fault_study(config)),
                0x3ba272842cb338b5ULL);
}

// 32 cells per region, as in the fleet_city workload: the serving-cell scan
// has real choices to make around dead and collapsed cells.
TEST(StudyDigestTest, FleetFaultStudyDenseRegions) {
  FleetFaultStudyConfig config;
  config.fleet.network.num_cells = 64;
  config.fleet.num_sessions = 400;
  config.fleet.segments_per_session = 10;
  config.fleet.regions = 2;
  config.outage_prob = 0.9;  // whole-region outages happen: backoff runs too
  config.scenarios = {FleetFaultScenario::kCellOutages,
                      FleetFaultScenario::kSignalCollapse};
  config.intensities = {1.0};
  config.fleet.exec.jobs = 1;
  const std::string serial = dump(run_fleet_fault_study(config));
  config.fleet.exec.jobs = 4;
  expect_digest(serial, dump(run_fleet_fault_study(config)),
                0xbefe370f79548b57ULL);
}

}  // namespace
}  // namespace eacs::sim
