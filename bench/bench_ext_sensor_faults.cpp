// Extension: graceful degradation under sensor faults.
//
// The context-aware algorithm plans on two sensed inputs — accelerometer
// vibration and LTE signal strength. This bench corrupts what the policy
// *perceives* (dropout, stuck-at, noise, saturation, NaN, rate collapse on
// the accel stream; dropout on telephony readings) while the physical
// session stays clean, and reports how far degraded-context Ours drifts from
// clean-context Ours and whether it stays ahead of a context-blind baseline
// (BBA). The whole table is deterministic in the study seed.

#include "bench_common.h"
#include "eacs/sim/report.h"
#include "eacs/sim/sensor_fault_study.h"

namespace {

using namespace eacs;

void print_reproduction() {
  bench::banner("Extension: sensor faults",
                "Fault scenario x intensity sweep of degraded-context Ours");

  sim::SensorFaultStudyConfig config;
  const auto result = sim::run_sensor_fault_study(config);

  std::printf("Clean-context Ours: QoE %.3f, energy %.1f J | context-blind "
              "BBA: QoE %.3f, energy %.1f J\n\n",
              result.clean_ours.mean_qoe, result.clean_ours.total_energy_j,
              result.context_blind.mean_qoe, result.context_blind.total_energy_j);

  sim::sensor_fault_table(result).print();

  const auto& total_dropout =
      result.cell(sim::SensorFaultScenario::kDropout, 1.0);
  std::printf(
      "\nTotal accelerometer loss: QoE drifts %.3f from clean context while "
      "the conservative-prior fallback keeps the policy planning (context "
      "error %.2f m/s^2, rebuffer delta %.1f s).\n",
      total_dropout.qoe_delta_vs_clean, total_dropout.mean_context_error,
      total_dropout.rebuffer_delta_vs_clean_s);

  bench::record_metric("clean_ours_qoe", result.clean_ours.mean_qoe);
  bench::record_metric("clean_ours_energy_j", result.clean_ours.total_energy_j);
  bench::record_metric("blind_qoe", result.context_blind.mean_qoe);
  bench::record_metric("dropout100_qoe_delta_vs_clean",
                       total_dropout.qoe_delta_vs_clean);
  bench::record_metric("dropout100_energy_delta_vs_clean_j",
                       total_dropout.energy_delta_vs_clean_j);
  bench::record_metric("dropout100_context_error",
                       total_dropout.mean_context_error);
  const auto& combined = result.cell(sim::SensorFaultScenario::kCombined, 1.0);
  bench::record_metric("combined_qoe_delta_vs_clean",
                       combined.qoe_delta_vs_clean);
  bench::record_metric("combined_qoe_delta_vs_blind",
                       combined.qoe_delta_vs_blind);
}

void BM_SensorFaultStudyCell(benchmark::State& state) {
  sim::SensorFaultStudyConfig config;
  config.scenarios = {sim::SensorFaultScenario::kCombined};
  config.intensities = {1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_sensor_fault_study(config));
  }
}
BENCHMARK(BM_SensorFaultStudyCell)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
