// Fleet fault-tolerance study: run_fleet_fault_study (DESIGN §14) over the
// scenario x intensity x policy grid on a 5k-session fleet, reporting the
// population QoE / energy / rebuffer deltas vs. clean plus the degradation-
// ladder counters (escape handoffs, backoff retries, abandonments, planner
// sheds, wasted energy). A second section times the checkpoint machinery:
// cut cost, sidecar size, and the resume-vs-uninterrupted overhead.
//
// `--json-append BENCH_baseline.json` upserts the "Fleet faults" record the
// committed baseline carries.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eacs/sim/fleet_checkpoint.h"
#include "eacs/sim/fleet_fault_study.h"

namespace {

using namespace eacs;

sim::FleetFaultStudyConfig study_config() {
  sim::FleetFaultStudyConfig config;  // default 16 cells, 8 regions
  config.fleet.num_sessions = 5000;
  config.intensities = {0.5, 1.0};
  // 4-cell regions with 2-cell fault domains: outages usually kill *part* of
  // a region, exercising the escape-handoff rung of the ladder, not just the
  // whole-region backoff rung.
  config.fleet.regions = 4;
  config.domain_cells = 2;
  return config;
}

std::string policy_name(sim::FleetPolicy policy) {
  return policy == sim::FleetPolicy::kPlanner ? "planner" : "throughput";
}

void print_reproduction() {
  bench::banner(
      "Fleet faults",
      "graceful degradation under correlated cell outages, brownouts, signal "
      "collapses and flash crowds: QoE/energy/rebuffer deltas vs clean, "
      "degradation-ladder counters, checkpoint/resume overhead");

  const auto config = study_config();
  const auto start = std::chrono::steady_clock::now();
  const sim::FleetFaultStudyResult result = sim::run_fleet_fault_study(config);
  const auto end = std::chrono::steady_clock::now();
  const double study_ms =
      std::chrono::duration<double, std::milli>(end - start).count();

  AsciiTable table("Fault grid, 5k sessions (deltas vs clean same-policy run)");
  table.set_header({"scenario", "intensity", "policy", "dQoE", "dE [J]",
                    "dstall [s]", "escapes", "retries", "abandoned", "sheds"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kLeft,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight});
  for (const sim::FleetFaultStudyCell& cell : result.cells) {
    table.add_row(
        {sim::to_string(cell.scenario), AsciiTable::num(cell.intensity, 2),
         policy_name(cell.policy), AsciiTable::num(cell.qoe_delta_vs_clean, 3),
         AsciiTable::num(cell.energy_delta_vs_clean_j, 1),
         AsciiTable::num(cell.rebuffer_delta_vs_clean_s, 2),
         std::to_string(cell.metrics.escape_handoffs),
         std::to_string(cell.metrics.backoff_retries),
         std::to_string(cell.metrics.abandoned_sessions),
         std::to_string(cell.metrics.policy_sheds)});
  }
  table.print();
  std::printf("full grid: %.0f ms (%zu fleet runs)\n\n", study_ms,
              result.cells.size() + result.baselines.size());

  // Headline metrics: the combined scenario at full intensity, both policies.
  for (const sim::FleetPolicy policy : config.policies) {
    const sim::FleetFaultStudyCell& cell =
        result.cell(sim::FleetFaultScenario::kCombined, 1.0, policy);
    const std::string tag = policy_name(policy);
    bench::record_metric("combined_qoe_delta_" + tag,
                         cell.qoe_delta_vs_clean);
    bench::record_metric("combined_energy_delta_j_" + tag,
                         cell.energy_delta_vs_clean_j);
    bench::record_metric(
        "combined_abandoned_" + tag,
        static_cast<double>(cell.metrics.abandoned_sessions));
    bench::record_metric(
        "combined_escapes_" + tag,
        static_cast<double>(cell.metrics.escape_handoffs));
    bench::record_metric("combined_degraded_s_" + tag,
                         cell.metrics.degraded_time_s);
    bench::record_metric("combined_wasted_j_" + tag,
                         cell.metrics.wasted_energy_j);
  }
  // Clean-baseline event counts: the no-op certification anchor (these must
  // match the un-faulted fleet bench bit for bit).
  bench::record_metric("clean_events_throughput",
                       static_cast<double>(result.baselines[0].events));
  bench::record_metric("clean_events_planner",
                       static_cast<double>(result.baselines[1].events));

  // Checkpoint/resume overhead on one faulted planner fleet: the
  // uninterrupted run, the cut and the resume all use this config.
  sim::FleetConfig fleet = config.fleet;
  fleet.policy = sim::FleetPolicy::kPlanner;
  fleet.faults.seeded.horizon_s = 2000.0;
  fleet.faults.seeded.outage_prob = 0.175;
  fleet.faults.seeded.brownout_prob = 0.25;
  const double cut_s = 300.0;
  const auto t0 = std::chrono::steady_clock::now();
  const sim::FleetMetrics uninterrupted = sim::run_fleet(fleet);
  const auto t1 = std::chrono::steady_clock::now();
  const sim::FleetCheckpoint checkpoint = sim::run_fleet_until(fleet, cut_s);
  const auto t2 = std::chrono::steady_clock::now();
  const sim::FleetMetrics resumed = sim::resume_fleet(fleet, checkpoint);
  const auto t3 = std::chrono::steady_clock::now();
  // Every per-region counter plus the fleet's QoE and energy moments: a
  // coarse echo of tests/differential/fleet_checkpoint_diff_test.cpp, which
  // compares every aggregate bit for bit.
  const bool identical =
      resumed.regions == uninterrupted.regions &&
      resumed.qoe.state() == uninterrupted.qoe.state() &&
      resumed.energy_j.state() == uninterrupted.energy_j.state();

  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_fleet_faults.ckpt")
          .string();
  sim::save_fleet_checkpoint(checkpoint, path);
  const double sidecar_kb =
      static_cast<double>(std::filesystem::file_size(path)) / 1024.0;
  std::filesystem::remove(path);

  const double full_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double cut_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  const double resume_ms =
      std::chrono::duration<double, std::milli>(t3 - t2).count();
  std::printf("checkpoint @ %.0f s: cut %.0f ms + resume %.0f ms "
              "(uninterrupted %.0f ms), sidecar %.0f kB, resumed metrics "
              "identical: %s\n\n",
              cut_s, cut_ms, resume_ms, full_ms, sidecar_kb,
              identical ? "yes" : "NO");
  bench::record_metric("checkpoint_cut_ms", cut_ms);
  bench::record_metric("checkpoint_resume_ms", resume_ms);
  bench::record_metric("checkpoint_sidecar_kb", sidecar_kb);
}

void BM_FleetCombinedFaults(benchmark::State& state) {
  sim::FleetFaultStudyConfig config = study_config();
  config.scenarios = {sim::FleetFaultScenario::kCombined};
  config.intensities = {1.0};
  config.policies = {sim::FleetPolicy::kThroughput};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_fleet_fault_study(config));
  }
}
BENCHMARK(BM_FleetCombinedFaults)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void BM_FleetCheckpointRoundTrip(benchmark::State& state) {
  sim::FleetConfig fleet = study_config().fleet;
  fleet.num_sessions = 2000;
  for (auto _ : state) {
    const sim::FleetCheckpoint checkpoint =
        sim::run_fleet_until(fleet, 200.0);
    benchmark::DoNotOptimize(sim::resume_fleet(fleet, checkpoint));
  }
}
BENCHMARK(BM_FleetCheckpointRoundTrip)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
