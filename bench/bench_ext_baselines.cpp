// Extension: additional baselines beyond the paper's comparison.
//
// Adds BOLA (INFOCOM'16), MPC (SIGCOMM'15, the paper's ref [17]) and our
// rolling-horizon variant of the paper's objective to the five-trace
// evaluation. Neither BOLA nor MPC is energy- or context-aware, so they
// cluster with FESTIVE/BBA on energy; the rolling-horizon selector tracks
// the paper's online algorithm, showing Algorithm 1's hand-tuned smoothing
// is close to the exact receding-horizon optimum of the same objective.

#include "bench_common.h"
#include "eacs/abr/bola.h"
#include "eacs/abr/fixed.h"
#include "eacs/abr/mpc.h"
#include "eacs/core/horizon.h"
#include "eacs/core/online.h"
#include "eacs/sim/study.h"

namespace {

using namespace eacs;

void print_reproduction() {
  bench::banner("Extension: baseline zoo",
                "BOLA / MPC / rolling-horizon vs. the paper's algorithms");

  const sim::StudySessions fixture(sim::EvaluationConfig{});

  struct Totals {
    double energy = 0.0;
    double qoe = 0.0;
    double rebuffer = 0.0;
    std::size_t switches = 0;
  };
  std::vector<std::pair<std::string, Totals>> rows;

  abr::FixedBitrate youtube;
  abr::Bola bola(5.0, 30.0);
  abr::Mpc mpc;
  core::OnlineBitrateSelector ours(fixture.objective, {.startup_level = 3});
  core::RollingHorizonSelector horizon(fixture.objective,
                                       {.horizon = 5, .startup_level = 3});
  std::vector<player::AbrPolicy*> policies = {&youtube, &bola, &mpc, &ours, &horizon};

  for (player::AbrPolicy* policy : policies) {
    Totals totals;
    for (std::size_t s = 0; s < fixture.size(); ++s) {
      const auto playback = fixture.simulators[s].run(*policy, fixture.sessions[s]);
      const auto metrics = fixture.metrics(policy->name(), s, playback);
      totals.energy += metrics.total_energy_j;
      totals.qoe += metrics.mean_qoe;
      totals.rebuffer += metrics.rebuffer_s;
      totals.switches += metrics.switch_count;
    }
    rows.emplace_back(policy->name(), totals);
  }

  const double youtube_energy = rows.front().second.energy;
  AsciiTable table("Five-trace totals");
  table.set_header({"algorithm", "energy (J)", "saving", "mean QoE",
                    "rebuffer (s)", "switches"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});
  for (const auto& [name, totals] : rows) {
    table.add_row({name, AsciiTable::num(totals.energy, 0),
                   AsciiTable::percent(1.0 - totals.energy / youtube_energy, 1),
                   AsciiTable::num(totals.qoe / 5.0, 2),
                   AsciiTable::num(totals.rebuffer, 1),
                   std::to_string(totals.switches)});
  }
  table.print();
}

void BM_MpcDecision(benchmark::State& state) {
  abr::Mpc policy(static_cast<std::size_t>(state.range(0)));
  const media::VideoManifest manifest("bench", 600.0, 2.0,
                                      media::BitrateLadder::evaluation14());
  net::HarmonicMeanEstimator estimator(20);
  for (int i = 0; i < 20; ++i) estimator.observe(8.0);
  player::AbrContext ctx;
  ctx.segment_index = 50;
  ctx.num_segments = manifest.num_segments();
  ctx.buffer_s = 20.0;
  ctx.prev_level = 7;
  ctx.manifest = &manifest;
  ctx.bandwidth = &estimator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.choose_level(ctx));
  }
}
BENCHMARK(BM_MpcDecision)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_HorizonDecision(benchmark::State& state) {
  core::Objective objective(qoe::QoeModel{}, power::PowerModel{},
                            core::ObjectiveConfig{});
  core::RollingHorizonSelector policy(
      objective, {.horizon = static_cast<std::size_t>(state.range(0))});
  const media::VideoManifest manifest("bench", 600.0, 2.0,
                                      media::BitrateLadder::evaluation14());
  net::HarmonicMeanEstimator estimator(20);
  for (int i = 0; i < 20; ++i) estimator.observe(8.0);
  player::AbrContext ctx;
  ctx.segment_index = 50;
  ctx.num_segments = manifest.num_segments();
  ctx.buffer_s = 20.0;
  ctx.prev_level = 7;
  ctx.manifest = &manifest;
  ctx.bandwidth = &estimator;
  ctx.vibration_level = 5.0;
  ctx.signal_dbm = -104.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.choose_level(ctx));
  }
}
BENCHMARK(BM_HorizonDecision)->Arg(1)->Arg(5)->Arg(15)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
