// Extension: multi-source CDN failover under server faults.
//
// The link-fault bench (bench_ext_fault_tolerance) stresses the radio; this
// one stresses the *servers*. The origin misbehaves — long outages, HTTP
// error bursts, truncated/corrupted payloads, slow-start collapse — while
// one or two clean edge caches sit behind it. The study sweeps fault family
// x intensity x source count; the source-count-1 column is the retry-only
// baseline, so every other column quantifies what circuit breakers,
// health-scored failover and hedged requests buy. Deterministic in the study
// seed at any job count.

#include "bench_common.h"
#include "eacs/sim/cdn_fault_study.h"
#include "eacs/sim/report.h"

namespace {

using namespace eacs;

void print_reproduction() {
  bench::banner("Extension: CDN failover",
                "Server-fault family x intensity x source-count sweep");

  sim::CdnFaultStudyConfig config;
  const auto result = sim::run_cdn_fault_study(config);

  std::printf("Fault-free single source (%s): QoE %.3f, energy %.1f J, "
              "rebuffer %.1f s\n\n",
              result.clean.algorithm.c_str(), result.clean.mean_qoe,
              result.clean.total_energy_j, result.clean.rebuffer_s);

  sim::cdn_fault_table(result).print();

  const auto& solo = result.cell(sim::CdnFaultFamily::kOriginOutage, 1.0, 1);
  const auto& duo = result.cell(sim::CdnFaultFamily::kOriginOutage, 1.0, 2);
  std::printf(
      "\nOrigin outages at full intensity: retry-only rebuffers %.1f s; a "
      "second source cuts that to %.1f s (%zu failovers, %zu hedges) for "
      "%.1f J of hedge/abort waste.\n",
      solo.rebuffer_s, duo.rebuffer_s, duo.failovers, duo.hedges,
      duo.wasted_energy_j);

  bench::record_metric("clean_qoe", result.clean.mean_qoe);
  bench::record_metric("clean_rebuffer_s", result.clean.rebuffer_s);
  bench::record_metric("outage100_solo_rebuffer_s", solo.rebuffer_s);
  bench::record_metric("outage100_duo_rebuffer_s", duo.rebuffer_s);
  bench::record_metric("outage100_duo_qoe_delta_vs_single",
                       duo.qoe_delta_vs_single);
  bench::record_metric("outage100_duo_failovers",
                       static_cast<double>(duo.failovers));
  bench::record_metric("outage100_duo_hedges", static_cast<double>(duo.hedges));
  bench::record_metric("outage100_duo_wasted_energy_j", duo.wasted_energy_j);
  const auto& err_solo = result.cell(sim::CdnFaultFamily::kErrorBursts, 1.0, 1);
  const auto& err_duo = result.cell(sim::CdnFaultFamily::kErrorBursts, 1.0, 2);
  bench::record_metric("errors100_solo_retries",
                       static_cast<double>(err_solo.retries));
  bench::record_metric("errors100_duo_retries",
                       static_cast<double>(err_duo.retries));
}

void BM_CdnFaultStudyCell(benchmark::State& state) {
  sim::CdnFaultStudyConfig config;
  config.families = {sim::CdnFaultFamily::kOriginOutage};
  config.intensities = {1.0};
  config.source_counts = {2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_cdn_fault_study(config));
  }
}
BENCHMARK(BM_CdnFaultStudyCell)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
