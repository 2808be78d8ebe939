// Extension: multi-client fairness over a shared bottleneck.
//
// Four co-located clients (same vehicle context) share one link and run the
// same algorithm; we report Jain's fairness index over their mean bitrates,
// the aggregate energy, mean QoE and stalls — the regime FESTIVE was
// designed for and the paper's single-client evaluation does not cover.

#include "bench_common.h"
#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/online.h"
#include "eacs/player/session_engine.h"
#include "eacs/sim/metrics.h"
#include "eacs/trace/session.h"
#include "eacs/util/stats.h"

namespace {

using namespace eacs;

constexpr std::size_t kClients = 4;

struct FleetOutcome {
  double fairness = 0.0;
  double total_energy = 0.0;
  double mean_qoe = 0.0;
  double total_rebuffer = 0.0;
  double mean_bitrate = 0.0;
};

template <typename PolicyType, typename... Args>
FleetOutcome run_fleet(const media::VideoManifest& manifest,
                       const trace::SessionTraces& session,
                       const trace::TimeSeries& capacity, Args&&... args) {
  std::vector<std::unique_ptr<player::AbrPolicy>> policies;
  std::vector<player::SessionClient> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    policies.push_back(std::make_unique<PolicyType>(args...));
    clients.push_back({&manifest, policies.back().get(), &session,
                       static_cast<double>(i) * 1.0});
  }
  const player::CellularLinkModel link(capacity);
  const auto results =
      player::SessionEngine{player::SessionEngineConfig{}}.run(clients, link);

  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  FleetOutcome outcome;
  std::vector<double> bitrates;
  for (const auto& result : results) {
    const auto metrics =
        sim::compute_metrics("x", 0, result, manifest, qoe_model, power_model);
    outcome.total_energy += metrics.total_energy_j;
    outcome.mean_qoe += metrics.mean_qoe / kClients;
    outcome.total_rebuffer += metrics.rebuffer_s;
    bitrates.push_back(result.mean_bitrate_mbps());
    outcome.mean_bitrate += result.mean_bitrate_mbps() / kClients;
  }
  outcome.fairness = jain_fairness(bitrates);
  return outcome;
}

void print_reproduction() {
  bench::banner("Extension: multi-client fairness",
                "Four clients sharing a bottleneck, one algorithm per fleet");

  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("shared", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  // The bottleneck: the session's own throughput trace (the link all four
  // clients ride behind).
  const auto& capacity = session.throughput_mbps;

  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  core::ObjectiveConfig objective_config;
  const core::Objective objective(qoe_model, power_model, objective_config);

  AsciiTable table("Fleet outcomes (4 clients, vehicle context, shared link)");
  table.set_header({"algorithm", "Jain fairness", "mean bitrate (Mbps)",
                    "fleet energy (J)", "mean QoE", "fleet rebuffer (s)"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});

  const auto add_row = [&table](const char* name, const FleetOutcome& outcome) {
    table.add_row({name, AsciiTable::num(outcome.fairness, 3),
                   AsciiTable::num(outcome.mean_bitrate, 2),
                   AsciiTable::num(outcome.total_energy, 0),
                   AsciiTable::num(outcome.mean_qoe, 2),
                   AsciiTable::num(outcome.total_rebuffer, 1)});
  };

  add_row("Youtube", run_fleet<abr::FixedBitrate>(manifest, session, capacity));
  add_row("FESTIVE", run_fleet<abr::Festive>(manifest, session, capacity));
  add_row("BBA", run_fleet<abr::Bba>(manifest, session, capacity, 5.0, 30.0));
  add_row("Ours", run_fleet<core::OnlineBitrateSelector>(
                      manifest, session, capacity, objective,
                      core::OnlineOptions{.startup_level = 3}));
  table.print();

  std::printf("\n(Four fixed-5.8 clients need 23.2 Mbps the link rarely has ->\n"
              "stalls; the context-aware fleet asks for far less than the link\n"
              "offers, so it is both fair and stall-free while spending the\n"
              "least energy.)\n");
}

void BM_MultiClientRun(benchmark::State& state) {
  const auto spec = media::evaluation_sessions()[0];
  const auto session = trace::build_session(spec);
  const media::VideoManifest manifest("shared", spec.length_s, 2.0,
                                      media::BitrateLadder::evaluation14());
  const player::CellularLinkModel link(session.throughput_mbps);
  const player::SessionEngine engine{player::SessionEngineConfig{}};
  for (auto _ : state) {
    std::vector<std::unique_ptr<player::AbrPolicy>> policies;
    std::vector<player::SessionClient> clients;
    for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
      policies.push_back(std::make_unique<abr::Festive>());
      clients.push_back({&manifest, policies.back().get(), &session, 0.0});
    }
    benchmark::DoNotOptimize(engine.run(clients, link));
  }
}
BENCHMARK(BM_MultiClientRun)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
