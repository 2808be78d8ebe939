// SessionEngine inner-loop hot path: per-session latency of the analytic
// solo loop with the fast paths engaged (devirtualized downloader, stateful
// signal cursor) vs. SessionEngineConfig::reference_mode (original
// virtual-dispatch, binary-search-per-lookup code), over the five Table V
// sessions.
//
// The per-session latency is the local headline (see EXPERIMENTS.md). The
// certified claims are not wall-clock and live in ctest: the analytic loop
// consults the ABR policy exactly once per segment
// (SessionEngineTest.FaultFreeEventOrdering), and the fast paths bit-match
// reference_mode across the whole scenario matrix
// (tests/differential/engine_diff_test.cpp).

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eacs/abr/festive.h"
#include "eacs/media/manifest.h"
#include "eacs/player/session_engine.h"
#include "eacs/trace/session.h"

namespace {

using namespace eacs;

const std::vector<trace::SessionTraces>& sessions() {
  static const std::vector<trace::SessionTraces> all = trace::build_all_sessions();
  return all;
}

media::VideoManifest manifest_for(const media::SessionSpec& spec) {
  return media::VideoManifest("trace" + std::to_string(spec.id), spec.length_s,
                              2.0, media::BitrateLadder::evaluation14());
}

player::PlaybackResult run_solo(const trace::SessionTraces& session,
                                const media::VideoManifest& manifest,
                                player::AbrPolicy& policy, bool reference_mode) {
  const player::SoloLinkModel link(session.throughput_mbps);
  const player::SessionClient client{&manifest, &policy, &session, 0.0};
  player::SessionEngineConfig config;
  config.reference_mode = reference_mode;
  const player::SessionEngine engine(config);
  return engine.run(client, link);
}

template <typename F>
double best_of_ms(F&& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < best) best = ms;
  }
  return best;
}

void print_reproduction() {
  bench::banner("Session engine hot path",
                "Analytic solo loop: fast paths (devirtualized downloader, "
                "signal cursor) vs. reference_mode, per Table V session");

  std::printf("%8s %5s | %12s %12s %8s\n", "session", "segs", "ref ms",
              "fast ms", "speedup");
  double best_fast_ms = 1e300;
  for (const auto& session : sessions()) {
    const media::VideoManifest manifest = manifest_for(session.spec);
    abr::Festive timed;
    const double fast_ms = best_of_ms(
        [&] { benchmark::DoNotOptimize(run_solo(session, manifest, timed, false)); },
        31);
    const double reference_ms = best_of_ms(
        [&] { benchmark::DoNotOptimize(run_solo(session, manifest, timed, true)); },
        31);
    if (fast_ms < best_fast_ms) best_fast_ms = fast_ms;

    std::printf("%8d %5zu | %12.3f %12.3f %7.2fx\n", session.spec.id,
                manifest.num_segments(), reference_ms, fast_ms,
                fast_ms > 0.0 ? reference_ms / fast_ms : 0.0);

    const std::string suffix = "_s" + std::to_string(session.spec.id);
    bench::record_metric("solo_ms_reference" + suffix, reference_ms);
    bench::record_metric("solo_ms_fast" + suffix, fast_ms);
  }
  bench::record_metric("solo_session_ms_best", best_fast_ms);
  std::printf("\nbest fast-path session: %.3f ms\n(bit-identity to "
              "reference_mode: tests/differential/engine_diff_test.cpp)\n",
              best_fast_ms);
}

void BM_SoloSessionFast(benchmark::State& state) {
  const auto& session = sessions().front();
  const media::VideoManifest manifest = manifest_for(session.spec);
  abr::Festive policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_solo(session, manifest, policy, false));
  }
}
BENCHMARK(BM_SoloSessionFast)->Unit(benchmark::kMillisecond);

void BM_SoloSessionReference(benchmark::State& state) {
  const auto& session = sessions().front();
  const media::VideoManifest manifest = manifest_for(session.spec);
  abr::Festive policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_solo(session, manifest, policy, true));
  }
}
BENCHMARK(BM_SoloSessionReference)->Unit(benchmark::kMillisecond);

void BM_CursorLinearAt(benchmark::State& state) {
  const auto& signal = sessions().front().signal_dbm;
  const double end = signal.end_time();
  trace::TimeSeriesCursor cursor(signal);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cursor.linear_at(t));
    t += 0.37;
    if (t > end) t = 0.0;
  }
}
BENCHMARK(BM_CursorLinearAt);

void BM_BinarySearchLinearAt(benchmark::State& state) {
  const auto& signal = sessions().front().signal_dbm;
  const double end = signal.end_time();
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal.linear_at(t));
    t += 0.37;
    if (t > end) t = 0.0;
  }
}
BENCHMARK(BM_BinarySearchLinearAt);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
