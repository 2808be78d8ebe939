// Ablation: does the paper's algorithm ranking survive a stricter
// session-level QoE model?
//
// The paper scores QoE as the mean per-task quality. This bench re-scores
// the whole five-trace evaluation under the session aggregator
// (recency weighting, startup and stall-event penalties, oscillation term)
// and prints both scores side by side, plus the PID baseline (ref [4]) for
// extra coverage of the control-theoretic design space.

#include "bench_common.h"
#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/abr/pid.h"
#include "eacs/core/online.h"
#include "eacs/qoe/session_qoe.h"
#include "eacs/sim/metrics.h"
#include "eacs/sim/study.h"
#include "eacs/trace/session.h"

namespace {

using namespace eacs;

void print_reproduction() {
  bench::banner("Ablation: session-level QoE",
                "Per-task mean vs. session aggregator (recency/startup/stalls)");

  const sim::StudySessions fixture(sim::EvaluationConfig{});

  abr::FixedBitrate youtube;
  abr::Festive festive;
  abr::Bba bba(5.0, 30.0);
  abr::PidController pid;
  core::OnlineBitrateSelector ours(fixture.objective, {.startup_level = 3});
  std::vector<player::AbrPolicy*> policies = {&youtube, &festive, &bba, &pid, &ours};

  AsciiTable table("Five-trace means under both QoE aggregations");
  table.set_header({"algorithm", "per-task mean QoE", "session MOS",
                    "startup pen.", "oscillation pen.", "energy (J)"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});

  struct Score {
    std::string name;
    double task_qoe = 0.0;
    double session_mos = 0.0;
  };
  std::vector<Score> scores;
  for (player::AbrPolicy* policy : policies) {
    double task_qoe = 0.0;
    double session_mos = 0.0;
    double startup_pen = 0.0;
    double oscillation_pen = 0.0;
    double energy = 0.0;
    for (std::size_t s = 0; s < fixture.size(); ++s) {
      const auto playback = fixture.simulators[s].run(*policy, fixture.sessions[s]);
      task_qoe += sim::session_mean_qoe(playback, fixture.qoe_model) / 5.0;
      const auto breakdown = qoe::session_qoe(playback, fixture.qoe_model);
      session_mos += breakdown.mos / 5.0;
      startup_pen += breakdown.startup_penalty / 5.0;
      oscillation_pen += breakdown.oscillation_penalty / 5.0;
      energy += sim::session_energy_j(playback, fixture.power_model);
    }
    table.add_row({policy->name(), AsciiTable::num(task_qoe, 2),
                   AsciiTable::num(session_mos, 2), AsciiTable::num(startup_pen, 3),
                   AsciiTable::num(oscillation_pen, 3), AsciiTable::num(energy, 0)});
    scores.push_back({policy->name(), task_qoe, session_mos});
  }
  table.print();

  // Does the ordering change?
  const auto rank_of = [&](auto key) {
    std::vector<std::string> names;
    auto sorted = scores;
    std::sort(sorted.begin(), sorted.end(),
              [&](const Score& a, const Score& b) { return key(a) > key(b); });
    for (const auto& score : sorted) names.push_back(score.name);
    return names;
  };
  const auto by_task = rank_of([](const Score& s) { return s.task_qoe; });
  const auto by_session = rank_of([](const Score& s) { return s.session_mos; });
  std::printf("\nRanking by per-task QoE:  ");
  for (const auto& name : by_task) std::printf("%s ", name.c_str());
  std::printf("\nRanking by session MOS:   ");
  for (const auto& name : by_session) std::printf("%s ", name.c_str());
  std::printf("\n");
}

void BM_SessionQoe(benchmark::State& state) {
  const auto session = trace::build_session(media::evaluation_sessions()[0]);
  const media::VideoManifest manifest("trace1", session.spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const player::PlayerSimulator simulator(manifest);
  abr::Festive festive;
  const auto playback = simulator.run(festive, session);
  const qoe::QoeModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qoe::session_qoe(playback, model));
  }
}
BENCHMARK(BM_SessionQoe);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
