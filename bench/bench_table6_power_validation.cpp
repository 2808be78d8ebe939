// Table VI: power-model validation — analytic model vs. the (simulated)
// Monsoon power monitor, per Table II bitrate at -90 dBm. Paper: error ratio
// consistently < 3%, average 1.43%.

#include "bench_common.h"
#include "eacs/power/validation.h"

namespace {

using namespace eacs;
using namespace eacs::power;

void print_reproduction() {
  bench::banner("Table VI", "Power model validation vs. simulated Monsoon monitor");
  const PowerModel model;
  // 5 kHz Monsoon sampling, 300 s clip, -90 dBm.
  const auto rows = validate_power_model(model, media::BitrateLadder::table2());

  AsciiTable table("Measured vs. calculated energy (paper rows: 708/649/637/616/608/597 J)");
  table.set_header({"bitrate (Mbps)", "measured (J)", "calculated (J)", "error ratio"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    table.add_row({AsciiTable::num(it->bitrate_mbps, 3),
                   AsciiTable::num(it->measured_j, 2),
                   AsciiTable::num(it->calculated_j, 2),
                   AsciiTable::percent(it->error_ratio, 2)});
  }
  table.print();
  std::printf("\nMean error ratio: %.2f%% (paper: 1.43%%, always < 3%%)\n",
              mean_error_ratio(rows) * 100.0);
}

void BM_MonsoonMeasurement(benchmark::State& state) {
  MonsoonConfig channel;
  channel.sample_rate_hz = static_cast<double>(state.range(0));
  MonsoonSimulator monsoon(channel, PowerModel{});
  std::vector<ActivityInterval> timeline = {
      {0.0, 10.0, true, 3.0, true, -90.0, 20.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(monsoon.measure_energy(timeline));
  }
}
BENCHMARK(BM_MonsoonMeasurement)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_ValidationSweep(benchmark::State& state) {
  MonsoonConfig channel;
  channel.sample_rate_hz = 500.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        validate_power_model(PowerModel{}, media::BitrateLadder::table2(), channel));
  }
}
BENCHMARK(BM_ValidationSweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
