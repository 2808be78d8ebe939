// Extension: signal-aware download scheduling.
//
// Given the bitrate plan the context-aware algorithm would pick, compare
// the radio energy of downloading each segment as early as possible (the
// standard player) against the DP schedule that defers through weak-signal
// valleys and batches into strong-signal windows, for several buffer caps.

#include "bench_common.h"
#include "eacs/core/optimal.h"
#include "eacs/core/prefetch.h"
#include "eacs/trace/session.h"

namespace {

using namespace eacs;

void print_reproduction() {
  bench::banner("Extension: prefetch scheduling",
                "ASAP vs. signal-aware DP download timing (radio energy only)");

  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("trace1", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;

  // The bitrate plan: what the paper's objective would choose with oracle
  // knowledge (scheduling is orthogonal to selection; we fix the selection).
  core::ObjectiveConfig objective_config;
  const core::Objective objective(qoe_model, power_model, objective_config);
  core::OptimalPlanner planner(objective);
  const auto tasks = core::build_task_environments(manifest, session);
  const auto bitrate_plan = planner.plan(tasks);

  AsciiTable table("Radio energy for the context-aware bitrate plan, trace 1");
  table.set_header({"buffer cap (s)", "ASAP (J)", "scheduled (J)", "saving",
                    "stalls (s)"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight});
  for (const double cap : {10.0, 30.0, 60.0, 120.0}) {
    core::PrefetchScheduler scheduler(manifest, bitrate_plan.levels,
                                      session.signal_dbm, session.throughput_mbps,
                                      power_model, cap);
    const auto asap = scheduler.asap();
    const auto optimized = scheduler.optimize();
    table.add_row({AsciiTable::num(cap, 0), AsciiTable::num(asap.radio_energy_j, 1),
                   AsciiTable::num(optimized.radio_energy_j, 1),
                   AsciiTable::percent(
                       1.0 - optimized.radio_energy_j /
                                 std::max(1e-9, asap.radio_energy_j), 1),
                   AsciiTable::num(optimized.stall_s, 1)});
  }
  table.print();

  // Fixed 1080p plan: bigger transfers, bigger scheduling dividend.
  const std::vector<std::size_t> top_plan(manifest.num_segments(), 13);
  core::PrefetchScheduler top_scheduler(manifest, top_plan, session.signal_dbm,
                                        session.throughput_mbps, power_model);
  const auto top_asap = top_scheduler.asap();
  const auto top_optimized = top_scheduler.optimize();
  std::printf("\nFixed-1080p plan, 30 s cap: ASAP %.1f J -> scheduled %.1f J "
              "(%.1f%% radio saving)\n",
              top_asap.radio_energy_j, top_optimized.radio_energy_j,
              (1.0 - top_optimized.radio_energy_j / top_asap.radio_energy_j) * 100.0);
  std::printf("(Scheduling composes with bitrate adaptation: the paper picks\n"
              "*what* to fetch; this module picks *when*.)\n");
}

void BM_PrefetchOptimize(benchmark::State& state) {
  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("trace1", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const power::PowerModel power_model;
  const std::vector<std::size_t> plan(manifest.num_segments(), 7);
  core::PrefetchScheduler scheduler(manifest, plan, session.signal_dbm,
                                    session.throughput_mbps, power_model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.optimize());
  }
}
BENCHMARK(BM_PrefetchOptimize)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
