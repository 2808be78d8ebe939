// Fig. 5: energy comparison of the five algorithms over the five traces.
//   (a) per-trace total energy;
//   (b) mean energy saving vs. YouTube, on the whole-phone and extra-energy
//       bases (paper: Ours 33% / Optimal 36% / FESTIVE 7% / BBA 4% whole;
//       Ours 77% / Optimal 80% / FESTIVE 15% / BBA 8% extra);
//   (c) base vs. extra energy decomposition for trace 1.

#include "bench_common.h"
#include "eacs/power/battery.h"
#include "eacs/sim/evaluation.h"

namespace {

using namespace eacs;

const sim::EvaluationResult& evaluation_result() {
  static const sim::EvaluationResult result = [] {
    const sim::Evaluation evaluation;
    return evaluation.run();
  }();
  return result;
}

void print_reproduction() {
  bench::banner("Fig. 5", "Energy comparison across algorithms and traces");
  const auto& result = evaluation_result();
  const auto algorithms = result.algorithms();

  AsciiTable per_trace("Fig. 5(a): total energy per trace (J)");
  std::vector<std::string> header = {"trace"};
  for (const auto& algo : algorithms) header.push_back(algo);
  per_trace.set_header(header);
  std::vector<Align> alignment(header.size(), Align::kRight);
  alignment[0] = Align::kLeft;
  per_trace.set_alignment(alignment);
  for (const auto& spec : media::evaluation_sessions()) {
    std::vector<std::string> row = {"trace" + std::to_string(spec.id)};
    for (const auto& algo : algorithms) {
      row.push_back(AsciiTable::num(result.row(algo, spec.id).total_energy_j, 0));
    }
    per_trace.add_row(row);
  }
  per_trace.print();

  AsciiTable savings("\nFig. 5(b): mean energy saving vs. Youtube");
  savings.set_header({"algorithm", "whole-phone", "paper", "extra-energy", "paper "});
  savings.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                         Align::kRight});
  const std::pair<const char*, std::pair<const char*, const char*>> expectations[] = {
      {"FESTIVE", {"7%", "15%"}},
      {"BBA", {"4%", "8%"}},
      {"Ours", {"33%", "77%"}},
      {"Optimal", {"36%", "80%"}},
  };
  for (const auto& [algo, paper] : expectations) {
    savings.add_row({algo, AsciiTable::percent(result.mean_energy_saving(algo), 1),
                     paper.first,
                     AsciiTable::percent(result.mean_extra_energy_saving(algo), 1),
                     paper.second});
    bench::record_metric(std::string("energy_saving_") + algo,
                         result.mean_energy_saving(algo));
    bench::record_metric(std::string("extra_energy_saving_") + algo,
                         result.mean_extra_energy_saving(algo));
  }
  savings.print();
  for (const auto& algo : algorithms) {
    double energy = 0.0;
    for (const auto& row : result.rows_for(algo)) energy += row.total_energy_j;
    bench::record_metric("total_energy_j_" + algo, energy);
  }

  // What the joules mean for a user: continuous streaming hours on the
  // paper's handset (Nexus 5X, 2700 mAh).
  double session_seconds = 0.0;
  for (const auto& spec : media::evaluation_sessions()) session_seconds += spec.length_s;
  AsciiTable hours("\nBattery perspective (Nexus 5X 2700 mAh): continuous streaming");
  hours.set_header({"algorithm", "mean power (W)", "hours per charge"});
  hours.set_alignment({Align::kLeft, Align::kRight, Align::kRight});
  for (const auto& algo : algorithms) {
    double energy = 0.0;
    for (const auto& row : result.rows_for(algo)) energy += row.total_energy_j;
    const double watts = energy / session_seconds;
    hours.add_row({algo, AsciiTable::num(watts, 2),
                   AsciiTable::num(power::battery_hours_at(watts), 1)});
  }
  hours.print();

  AsciiTable decomposition("\nFig. 5(c): base vs. extra energy, trace 1 (J)");
  decomposition.set_header({"algorithm", "base energy", "extra energy", "total"});
  decomposition.set_alignment({Align::kLeft, Align::kRight, Align::kRight,
                               Align::kRight});
  for (const auto& algo : algorithms) {
    const auto& row = result.row(algo, 1);
    decomposition.add_row({algo, AsciiTable::num(row.base_energy_j, 0),
                           AsciiTable::num(row.extra_energy_j, 0),
                           AsciiTable::num(row.total_energy_j, 0)});
  }
  decomposition.print();
}

void BM_FullEvaluation(benchmark::State& state) {
  for (auto _ : state) {
    const sim::Evaluation evaluation;
    benchmark::DoNotOptimize(evaluation.run());
  }
}
BENCHMARK(BM_FullEvaluation)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_SingleSessionAllPolicies(benchmark::State& state) {
  const sim::Evaluation evaluation;
  const auto session = trace::build_session(media::evaluation_sessions()[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluation.run({session}));
  }
}
BENCHMARK(BM_SingleSessionAllPolicies)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
