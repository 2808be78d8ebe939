// Headline numbers for the unified SessionEngine's shared-link (stepped)
// mode: Jain fairness and single-run wall time as FESTIVE fleets of growing
// size ride one bottleneck. Complements bench_ext_fairness (which compares
// algorithms at a fixed fleet size); this bench tracks how the engine itself
// behaves and costs as the fleet grows.

#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "eacs/abr/festive.h"
#include "eacs/media/manifest.h"
#include "eacs/player/session_engine.h"
#include "eacs/trace/session.h"
#include "eacs/util/stats.h"

namespace {

using namespace eacs;

struct FleetRun {
  double fairness = 0.0;
  double mean_bitrate = 0.0;
  double total_rebuffer = 0.0;
  double wall_ms = 0.0;
  std::size_t events = 0;
};

FleetRun run_fleet(const media::VideoManifest& manifest,
                   const trace::SessionTraces& session, std::size_t num_clients) {
  std::vector<std::unique_ptr<player::AbrPolicy>> policies;
  std::vector<player::SessionClient> clients;
  for (std::size_t i = 0; i < num_clients; ++i) {
    policies.push_back(std::make_unique<abr::Festive>());
    // Stagger joins by 1 s so the fleet ramps like real viewers, not in
    // lockstep.
    clients.push_back({&manifest, policies.back().get(), &session,
                       static_cast<double>(i) * 1.0});
  }
  const player::CellularLinkModel link(session.throughput_mbps);
  const player::SessionEngine engine{player::SessionEngineConfig{}};

  player::SessionTimeline timeline;
  const auto start = std::chrono::steady_clock::now();
  const auto results = engine.run(clients, link, &timeline);
  const auto end = std::chrono::steady_clock::now();

  FleetRun run;
  run.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  run.events = timeline.events().size();
  std::vector<double> bitrates;
  for (const auto& result : results) {
    bitrates.push_back(result.mean_bitrate_mbps());
    run.mean_bitrate += result.mean_bitrate_mbps() / static_cast<double>(num_clients);
    run.total_rebuffer += result.total_rebuffer_s;
  }
  run.fairness = jain_fairness(bitrates);
  return run;
}

void print_reproduction() {
  bench::banner("Multi-client session engine",
                "Jain fairness and wall time of the stepped shared-link mode");

  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("shared", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());

  AsciiTable table("FESTIVE fleets on the session-1 bottleneck (staggered joins)");
  table.set_header({"clients", "Jain fairness", "mean bitrate (Mbps)",
                    "fleet rebuffer (s)", "wall time (ms)", "timeline events"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});

  for (const std::size_t clients : {1U, 2U, 4U, 8U}) {
    const FleetRun run = run_fleet(manifest, session, clients);
    table.add_row({std::to_string(clients), AsciiTable::num(run.fairness, 3),
                   AsciiTable::num(run.mean_bitrate, 2),
                   AsciiTable::num(run.total_rebuffer, 1),
                   AsciiTable::num(run.wall_ms, 1), std::to_string(run.events)});
    const std::string suffix = "_clients" + std::to_string(clients);
    bench::record_metric("jain_fairness" + suffix, run.fairness);
    bench::record_metric("wall_ms" + suffix, run.wall_ms);
    bench::record_metric("mean_bitrate_mbps" + suffix, run.mean_bitrate);
    bench::record_metric("fleet_rebuffer_s" + suffix, run.total_rebuffer);
  }
  table.print();

  std::printf("\n(Fairness stays high because processor sharing splits the link\n"
              "equally and every client runs the same policy; wall time grows\n"
              "roughly linearly with the fleet because the step grid is fixed\n"
              "and each step touches every client once.)\n");
}

void BM_SessionEngineStepped(benchmark::State& state) {
  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("shared", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const auto num_clients = static_cast<std::size_t>(state.range(0));
  const player::CellularLinkModel link(session.throughput_mbps);
  const player::SessionEngine engine{player::SessionEngineConfig{}};
  for (auto _ : state) {
    std::vector<std::unique_ptr<player::AbrPolicy>> policies;
    std::vector<player::SessionClient> clients;
    for (std::size_t i = 0; i < num_clients; ++i) {
      policies.push_back(std::make_unique<abr::Festive>());
      clients.push_back({&manifest, policies.back().get(), &session,
                         static_cast<double>(i) * 1.0});
    }
    benchmark::DoNotOptimize(engine.run(clients, link));
  }
}
BENCHMARK(BM_SessionEngineStepped)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The observer contract says attaching a timeline never perturbs results; it
// should not meaningfully slow the run either. Same fleet, timeline attached.
void BM_SessionEngineSteppedWithTimeline(benchmark::State& state) {
  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("shared", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const player::CellularLinkModel link(session.throughput_mbps);
  const player::SessionEngine engine{player::SessionEngineConfig{}};
  for (auto _ : state) {
    std::vector<std::unique_ptr<player::AbrPolicy>> policies;
    std::vector<player::SessionClient> clients;
    for (std::size_t i = 0; i < 4; ++i) {
      policies.push_back(std::make_unique<abr::Festive>());
      clients.push_back({&manifest, policies.back().get(), &session,
                         static_cast<double>(i) * 1.0});
    }
    player::SessionTimeline timeline;
    benchmark::DoNotOptimize(engine.run(clients, link, &timeline));
    benchmark::DoNotOptimize(timeline.events().size());
  }
}
BENCHMARK(BM_SessionEngineSteppedWithTimeline)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
