// Extension: LTE tail energy vs. player pacing.
//
// The paper's per-byte model is pacing-blind. The RRC-aware accounting
// (power/rrc.h) exposes the effect the tail-energy literature reports: a
// larger buffer threshold clusters downloads into longer bursts separated by
// longer idle gaps, trading tail count against idle time. This bench sweeps
// the buffer threshold for the online algorithm on trace 1 and prints both
// accountings side by side.

#include "bench_common.h"
#include "eacs/core/online.h"
#include "eacs/player/player.h"
#include "eacs/power/rrc.h"
#include "eacs/sim/metrics.h"
#include "eacs/trace/session.h"

namespace {

using namespace eacs;

void print_reproduction() {
  bench::banner("Extension: tail energy",
                "Per-byte vs. RRC-aware radio accounting across buffer thresholds");

  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;

  AsciiTable table("Online algorithm on trace 1");
  table.set_header({"buffer B (s)", "per-byte total (J)", "RRC total (J)",
                    "tail (J)", "promotions", "tail time (s)"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});

  for (const double threshold : {6.0, 15.0, 30.0, 60.0}) {
    player::PlayerConfig player_config;
    player_config.buffer_threshold_s = threshold;
    const media::VideoManifest manifest("trace1", spec.length_s, 2.0,
                                        media::BitrateLadder::evaluation14());
    const player::PlayerSimulator simulator(manifest, player_config);

    core::ObjectiveConfig objective_config;
    objective_config.buffer_threshold_s = threshold;
    core::Objective objective(qoe_model, power_model, objective_config);
    core::OnlineBitrateSelector policy(objective, {.startup_level = 3});

    const auto playback = simulator.run(policy, session);
    const auto metrics = sim::compute_metrics("Ours", spec.id, playback, manifest,
                                              qoe_model, power_model);
    const auto rrc_energy = sim::session_energy_rrc(playback, power_model);

    table.add_row({AsciiTable::num(threshold, 0),
                   AsciiTable::num(metrics.total_energy_j, 1),
                   AsciiTable::num(rrc_energy.total_j(), 1),
                   AsciiTable::num(rrc_energy.tail_j, 1),
                   std::to_string(rrc_energy.promotions),
                   AsciiTable::num(rrc_energy.tail_time_s, 1)});
  }
  table.print();
  std::printf("\n(RRC totals exceed the per-byte totals by the tail/idle/"
              "promotion overhead\nthe paper's model omits; the overhead "
              "shrinks as the buffer threshold grows\nand downloads batch "
              "into fewer bursts.)\n");
}

void BM_RrcAnalyze(benchmark::State& state) {
  std::vector<power::TransferBurst> bursts;
  for (int i = 0; i < 300; ++i) {
    bursts.push_back({i * 2.0, i * 2.0 + 0.4});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::rrc_breakdown(bursts, 700.0));
  }
}
BENCHMARK(BM_RrcAnalyze);

void BM_RrcSessionEnergy(benchmark::State& state) {
  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("trace1", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const player::PlayerSimulator simulator(manifest);
  core::Objective objective(qoe::QoeModel{}, power::PowerModel{},
                            core::ObjectiveConfig{});
  core::OnlineBitrateSelector policy(objective, {.startup_level = 3});
  const auto playback = simulator.run(policy, session);
  const power::PowerModel power_model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::session_energy_rrc(playback, power_model));
  }
}
BENCHMARK(BM_RrcSessionEnergy);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
