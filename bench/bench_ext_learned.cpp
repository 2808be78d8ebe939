// Extension: learned ABR (Pensieve-style at laptop scale).
//
// Trains a linear-sigmoid policy with the cross-entropy method on a fresh
// trace ensemble (train/test split: training traces use different seeds
// than the Table V evaluation set), then drops the trained policy into the
// standard five-trace evaluation next to the analytic algorithms.

#include "bench_common.h"
#include "eacs/abr/fixed.h"
#include "eacs/abr/learned.h"
#include "eacs/core/online.h"
#include "eacs/sim/study.h"
#include "eacs/sim/training.h"

namespace {

using namespace eacs;

std::vector<trace::SessionTraces> training_sessions() {
  // Same Table V targets, disjoint seeds (train/test split).
  std::vector<trace::SessionTraces> sessions;
  for (media::SessionSpec spec : media::evaluation_sessions()) {
    spec.seed ^= 0x7EA1'11D5ULL;
    sessions.push_back(trace::build_session(spec));
  }
  return sessions;
}

void print_reproduction() {
  bench::banner("Extension: learned ABR",
                "CEM-trained linear policy vs. the analytic algorithms");

  std::printf("Training on a disjoint-seed trace ensemble (CEM, 32x12)...\n");
  sim::CemTrainer trainer(sim::CemTrainer::make_episodes(training_sessions()));
  const auto trained = trainer.train();
  std::printf("reward: %.4f (iteration bests: ", trained.final_reward);
  for (double reward : trained.reward_history) std::printf("%.3f ", reward);
  std::printf(")\nweights: [");
  for (double weight : trained.weights) std::printf("%.2f ", weight);
  std::printf("]\n  (order: bias, bandwidth, buffer, prev-level, vibration, signal)\n\n");

  // Evaluate on the default Table V sessions alongside the core algorithms.
  const sim::StudySessions fixture(sim::EvaluationConfig{});

  abr::FixedBitrate youtube;
  core::OnlineBitrateSelector ours(fixture.objective, {.startup_level = 3});
  abr::LinearPolicy learned(trained.weights);

  AsciiTable table("Test-set comparison (five Table V traces)");
  table.set_header({"algorithm", "energy (J)", "saving", "mean QoE", "rebuffer (s)"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight});
  double youtube_energy = 0.0;
  for (player::AbrPolicy* policy :
       std::initializer_list<player::AbrPolicy*>{&youtube, &ours, &learned}) {
    double energy = 0.0;
    double qoe = 0.0;
    double rebuffer = 0.0;
    for (std::size_t s = 0; s < fixture.size(); ++s) {
      const auto playback = fixture.simulators[s].run(*policy, fixture.sessions[s]);
      const auto metrics = fixture.metrics(policy->name(), s, playback);
      energy += metrics.total_energy_j;
      qoe += metrics.mean_qoe;
      rebuffer += metrics.rebuffer_s;
    }
    if (policy == &youtube) youtube_energy = energy;
    table.add_row({policy->name(), AsciiTable::num(energy, 0),
                   AsciiTable::percent(1.0 - energy / youtube_energy, 1),
                   AsciiTable::num(qoe / 5.0, 2), AsciiTable::num(rebuffer, 1)});
  }
  table.print();
  std::printf("\n(The learned policy discovers the same playbook as the analytic\n"
              "objective — back off under vibration and weak signal — from reward\n"
              "alone; the analytic algorithm needs no training data and\n"
              "generalises by construction.)\n");
}

void BM_CemIteration(benchmark::State& state) {
  auto sessions = training_sessions();
  sessions.resize(2);
  sim::CemTrainer trainer(sim::CemTrainer::make_episodes(std::move(sessions)));
  sim::CemConfig config;
  config.population = 8;
  config.elites = 2;
  config.iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(config));
  }
}
BENCHMARK(BM_CemIteration)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_LearnedDecision(benchmark::State& state) {
  abr::LinearPolicy policy({0.0, 3.0, 1.0, 0.5, -4.0, 2.0});
  const media::VideoManifest manifest("bench", 600.0, 2.0,
                                      media::BitrateLadder::evaluation14());
  net::HarmonicMeanEstimator estimator(20);
  for (int i = 0; i < 20; ++i) estimator.observe(9.0);
  player::AbrContext ctx;
  ctx.segment_index = 42;
  ctx.num_segments = manifest.num_segments();
  ctx.buffer_s = 22.0;
  ctx.prev_level = 6;
  ctx.manifest = &manifest;
  ctx.bandwidth = &estimator;
  ctx.vibration_level = 5.0;
  ctx.signal_dbm = -103.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.choose_level(ctx));
  }
}
BENCHMARK(BM_LearnedDecision);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
