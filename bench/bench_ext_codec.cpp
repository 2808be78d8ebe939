// Extension: objective quality vs. the subjective q0 curve.
//
// Simulates encoding synthetic source frames at every Table II rung
// (downsample to the rung's resolution + bitrate-driven quantisation,
// decode back to the display), measures PSNR/SSIM, and compares the
// resulting objective quality-vs-bitrate curve against the paper's fitted
// subjective q0(r): both should rise steeply through the low rungs and
// saturate at the top.

#include "bench_common.h"
#include "eacs/media/catalogue.h"
#include "eacs/media/codec.h"
#include "eacs/qoe/model.h"
#include "eacs/util/stats.h"

namespace {

using namespace eacs;

constexpr std::size_t kSourceW = 480;
constexpr std::size_t kSourceH = 270;
constexpr double kResolutionScale = 0.25;  // 480x270 source stands in for a display

void print_reproduction() {
  bench::banner("Extension: codec quality",
                "Objective PSNR/SSIM per ladder rung vs. the subjective q0(r)");

  const auto ladder = media::BitrateLadder::table2();
  const qoe::QoeModel qoe_model;

  // Average over three content complexities.
  const char* source_names[] = {"Show", "Sintel", "Basketball"};
  std::vector<double> mean_ssim(ladder.size(), 0.0);
  std::vector<double> mean_psnr(ladder.size(), 0.0);
  for (const char* name : source_names) {
    media::FrameGenerator generator(kSourceW, kSourceH,
                                    media::test_video(name).profile);
    const media::Frame source = generator.next();
    for (std::size_t level = 0; level < ladder.size(); ++level) {
      const media::Frame decoded =
          media::simulate_encode(source, ladder.rung(level), kResolutionScale);
      mean_psnr[level] += media::psnr(source, decoded) / 3.0;
      mean_ssim[level] += media::ssim(source, decoded) / 3.0;
    }
  }

  AsciiTable table("Quality per rung (mean of 3 synthetic sources)");
  table.set_header({"bitrate (Mbps)", "resolution", "PSNR (dB)", "SSIM",
                    "subjective q0(r)"});
  table.set_alignment({Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                       Align::kRight});
  std::vector<double> q0_values;
  for (std::size_t level = 0; level < ladder.size(); ++level) {
    const double q0 = qoe_model.original_quality(ladder.bitrate(level));
    q0_values.push_back(q0);
    table.add_row({AsciiTable::num(ladder.bitrate(level), 3),
                   ladder.rung(level).resolution,
                   AsciiTable::num(mean_psnr[level], 1),
                   AsciiTable::num(mean_ssim[level], 3), AsciiTable::num(q0, 2)});
  }
  table.print();

  std::printf("\nRank correlation: SSIM and q0 rise together; Pearson(SSIM, q0) "
              "= %.3f\n",
              eacs::pearson(mean_ssim, q0_values));
  std::printf("(Objective evidence for the paper's subjective curve shape:\n"
              "steep below 480p, flat above 720p.)\n");
}

void BM_SimulateEncode(benchmark::State& state) {
  media::FrameGenerator generator(kSourceW, kSourceH,
                                  media::test_video("Sintel").profile);
  const media::Frame source = generator.next();
  const auto ladder = media::BitrateLadder::table2();
  const auto& rung = ladder.rung(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::simulate_encode(source, rung, kResolutionScale));
  }
}
BENCHMARK(BM_SimulateEncode)->Arg(0)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_Ssim(benchmark::State& state) {
  media::FrameGenerator generator(kSourceW, kSourceH,
                                  media::test_video("Sintel").profile);
  const media::Frame a = generator.next();
  const media::Frame b = generator.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::ssim(a, b));
  }
}
BENCHMARK(BM_Ssim);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
