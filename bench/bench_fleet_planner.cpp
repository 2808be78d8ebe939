// Fleet-scale planner study: the paper's Eq. 11 rolling-horizon planner on
// every fleet client, made affordable by the context-quantized DecisionCache
// (DESIGN "Decision cache & quantization"). Three comparisons:
//
//   * Policy rows at 1k / 10k sessions — throughput ABR vs naive per-session
//     planning (cache capacity 0: same quantized decisions, zero reuse) vs
//     cached planning. The headline claim is cached >= 10x naive sessions/s
//     at 10k, landing within a small factor of the throughput baseline.
//   * Quantization sensitivity at 1k — bucket widths scaled x{0.5, 1, 2, 4}
//     against the exact (unquantized, uncached) planner: hit rate vs fleet
//     QoE / energy drift. This is the data behind the default buckets.
//   * Rich-engine quantization error — Evaluation ("Ours" over the Table V
//     sessions) with an exact-key cache (bit-identical, certified by
//     tests/differential/) and with the fleet's quantized config, reporting
//     the QoE / energy deltas of planning on bucket representatives.
//
// All cache/plan counters are deterministic in (config) —
// tests/sim/pinned_counters_test.cpp pins the 1k-session values exactly;
// wall-clock is advisory only.
//
// `--json-append BENCH_baseline.json` upserts the "fleet_planner_cache"
// record the committed baseline carries.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eacs/media/bitrate_ladder.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/fleet.h"

namespace {

using namespace eacs;

// The planner workload is deliberately heavier than the fleet smoke default:
// the paper's full 14-rung evaluation ladder (every solve prices all 14
// rungs) and 60-segment (~2 minute) sessions, whose long steady state is
// what a population planner actually amortizes. 16 cells, 8 regions,
// 4 arrivals/s as in the fleet-scale bench.
sim::FleetConfig fleet_config(std::size_t sessions, sim::FleetPolicy policy,
                              std::size_t cache_capacity) {
  sim::FleetConfig config;
  config.num_sessions = sessions;
  config.segments_per_session = 60;
  const auto ladder = media::BitrateLadder::evaluation14();
  config.ladder_mbps.clear();
  for (std::size_t l = 0; l < ladder.size(); ++l) {
    config.ladder_mbps.push_back(ladder.bitrate(l));
  }
  config.policy = policy;
  config.planner_cache.capacity = cache_capacity;
  return config;
}

struct TimedRun {
  sim::FleetMetrics metrics;
  double wall_ms = 0.0;
  double sessions_per_sec = 0.0;
};

TimedRun timed_run(const sim::FleetConfig& config) {
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  run.metrics = sim::run_fleet(config);
  const auto end = std::chrono::steady_clock::now();
  run.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  run.sessions_per_sec =
      run.wall_ms > 0.0
          ? 1e3 * static_cast<double>(config.num_sessions) / run.wall_ms
          : 0.0;
  return run;
}

void policy_comparison() {
  AsciiTable table("Fleet policy throughput (sessions/s) and cache counters");
  table.set_header({"sessions", "policy", "wall ms", "sessions/s", "hit rate",
                    "plans", "model evals"});
  table.set_alignment({Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight});

  double naive_10k = 0.0;
  double cached_10k = 0.0;
  for (const std::size_t sessions : {std::size_t{1000}, std::size_t{10000}}) {
    const std::string tag = std::to_string(sessions / 1000) + "k";
    struct Row {
      const char* name;
      sim::FleetPolicy policy;
      std::size_t capacity;
    };
    const Row rows[] = {
        {"throughput", sim::FleetPolicy::kThroughput, 0},
        {"planner naive", sim::FleetPolicy::kPlanner, 0},
        {"planner cached", sim::FleetPolicy::kPlanner,
         sim::FleetConfig{}.planner_cache.capacity},
    };
    for (const Row& row : rows) {
      const auto config = fleet_config(sessions, row.policy, row.capacity);
      sim::run_fleet(fleet_config(1000, row.policy, row.capacity));  // warm-up
      const TimedRun run = timed_run(config);
      const core::CostStats& planner = run.metrics.planner;
      const double lookups =
          static_cast<double>(planner.cache_hits + planner.cache_misses);
      const double hit_rate =
          lookups > 0.0 ? static_cast<double>(planner.cache_hits) / lookups : 0.0;
      table.add_row({std::to_string(sessions), row.name,
                     AsciiTable::num(run.wall_ms, 1),
                     AsciiTable::num(run.sessions_per_sec, 0),
                     AsciiTable::num(hit_rate, 3),
                     std::to_string(planner.plans),
                     std::to_string(planner.model_evals())});

      const std::string key = std::string(row.name) + "_" + tag;
      std::string id;
      for (const char c : key) id += (c == ' ' ? '_' : c);
      bench::record_metric("sessions_per_sec_" + id, run.sessions_per_sec);
      if (row.policy == sim::FleetPolicy::kPlanner) {
        bench::record_metric("hit_rate_" + id, hit_rate);
        bench::record_metric(
            "plans_per_session_" + id,
            static_cast<double>(planner.plans) / static_cast<double>(sessions));
        bench::record_metric("model_evals_per_session_" + id,
                             static_cast<double>(planner.model_evals()) /
                                 static_cast<double>(sessions));
      }
      if (sessions == 10000 && row.policy == sim::FleetPolicy::kPlanner) {
        (row.capacity == 0 ? naive_10k : cached_10k) = run.sessions_per_sec;
      }
      // The deterministic counters of the fixed 1k planner fleet.
      if (sessions == 1000 && row.policy == sim::FleetPolicy::kPlanner &&
          row.capacity != 0) {
        bench::record_metric("planner_cache_hits_1k",
                             static_cast<double>(planner.cache_hits));
        bench::record_metric("planner_cache_misses_1k",
                             static_cast<double>(planner.cache_misses));
        bench::record_metric("planner_cache_evictions_1k",
                             static_cast<double>(planner.cache_evictions));
        bench::record_metric("planner_plans_1k",
                             static_cast<double>(planner.plans));
        bench::record_metric("planner_model_evals_1k",
                             static_cast<double>(planner.model_evals()));
        bench::record_metric("planner_requests_1k",
                             static_cast<double>(run.metrics.requests));
        bench::record_metric("planner_sessions_1k",
                             static_cast<double>(run.metrics.sessions));
      }
    }
  }
  table.print();

  const double speedup = naive_10k > 0.0 ? cached_10k / naive_10k : 0.0;
  bench::record_metric("speedup_cached_vs_naive_10k", speedup);
  std::printf("\ncached vs naive planner at 10k sessions: %.1fx sessions/s\n\n",
              speedup);
}

void quantization_sensitivity() {
  AsciiTable table(
      "Quantization sensitivity at 1k sessions (vs exact uncached planner)");
  table.set_header({"bucket scale", "hit rate", "mean QoE", "QoE delta",
                    "mean energy J", "energy delta %"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight});

  // Exact reference: identity canonicalization, no storage — the true
  // planner decision on every request.
  auto exact_config = fleet_config(1000, sim::FleetPolicy::kPlanner, 0);
  exact_config.planner_cache.exact = true;
  const sim::FleetMetrics exact = sim::run_fleet(exact_config);
  const double exact_qoe = exact.qoe.mean();
  const double exact_energy = exact.energy_j.mean();
  bench::record_metric("sensitivity_exact_qoe_mean", exact_qoe);
  bench::record_metric("sensitivity_exact_energy_j_mean", exact_energy);

  const struct {
    double scale;
    const char* id;
  } scales[] = {{0.5, "0_5x"}, {1.0, "1x"}, {2.0, "2x"}, {4.0, "4x"}};
  for (const auto& [scale, id] : scales) {
    auto config = fleet_config(
        1000, sim::FleetPolicy::kPlanner,
        sim::FleetConfig{}.planner_cache.capacity);
    config.planner_cache.buffer_bucket_s *= scale;
    config.planner_cache.vibration_bucket *= scale;
    config.planner_cache.confidence_bucket *= scale;
    config.planner_cache.signal_bucket_dbm *= scale;
    // Bandwidth resolution moves inversely: wider buckets = fewer per octave.
    config.planner_cache.bandwidth_buckets_per_octave /= scale;
    const sim::FleetMetrics metrics = sim::run_fleet(config);
    const core::CostStats& planner = metrics.planner;
    const double lookups =
        static_cast<double>(planner.cache_hits + planner.cache_misses);
    const double hit_rate =
        lookups > 0.0 ? static_cast<double>(planner.cache_hits) / lookups : 0.0;
    const double qoe_delta = metrics.qoe.mean() - exact_qoe;
    const double energy_delta_pct =
        exact_energy > 0.0
            ? 100.0 * (metrics.energy_j.mean() - exact_energy) / exact_energy
            : 0.0;
    table.add_row({std::string(id), AsciiTable::num(hit_rate, 3),
                   AsciiTable::num(metrics.qoe.mean(), 4),
                   AsciiTable::num(qoe_delta, 4),
                   AsciiTable::num(metrics.energy_j.mean(), 1),
                   AsciiTable::num(energy_delta_pct, 2)});
    bench::record_metric(std::string("sensitivity_hit_rate_") + id, hit_rate);
    bench::record_metric(std::string("sensitivity_qoe_delta_") + id, qoe_delta);
    bench::record_metric(std::string("sensitivity_energy_delta_pct_") + id,
                         energy_delta_pct);
  }
  table.print();
  std::printf("\n");
}

void rich_engine_quantization_error() {
  AsciiTable table(
      "Rich engine (Table V sessions, \"Ours\"): cached vs uncached planning");
  table.set_header({"mode", "mean QoE", "mean energy J"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight});

  const auto mean_energy = [](const sim::EvaluationResult& result) {
    const auto rows = result.rows_for("Ours");
    double sum = 0.0;
    for (const auto& row : rows) sum += row.total_energy_j;
    return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
  };

  const sim::Evaluation uncached{{}};
  const auto base = uncached.run();
  const double base_qoe = base.mean_qoe("Ours");
  const double base_energy = mean_energy(base);
  table.add_row({"uncached", AsciiTable::num(base_qoe, 4),
                 AsciiTable::num(base_energy, 1)});

  sim::EvaluationConfig exact_config;
  exact_config.online_cache = core::DecisionCacheConfig{};  // exact keys
  const auto exact = sim::Evaluation(exact_config).run();
  table.add_row({"cached (exact keys)", AsciiTable::num(exact.mean_qoe("Ours"), 4),
                 AsciiTable::num(mean_energy(exact), 1)});

  sim::EvaluationConfig quantized_config;
  quantized_config.online_cache = core::DecisionCacheConfig{.exact = false};
  const auto quantized = sim::Evaluation(quantized_config).run();
  const double quantized_qoe = quantized.mean_qoe("Ours");
  const double quantized_energy = mean_energy(quantized);
  table.add_row({"cached (fleet buckets)", AsciiTable::num(quantized_qoe, 4),
                 AsciiTable::num(quantized_energy, 1)});
  table.print();

  // Exact-key caching must not move the numbers at all (the differential
  // harness certifies bitwise equality; this is the coarse echo of it).
  bench::record_metric("rich_exact_cache_qoe_drift",
                       exact.mean_qoe("Ours") - base_qoe);
  bench::record_metric("rich_quantized_qoe_delta", quantized_qoe - base_qoe);
  bench::record_metric(
      "rich_quantized_energy_delta_pct",
      base_energy > 0.0
          ? 100.0 * (quantized_energy - base_energy) / base_energy
          : 0.0);
  std::printf("\n");
}

void BM_FleetPlannerCached(benchmark::State& state) {
  const auto config =
      fleet_config(static_cast<std::size_t>(state.range(0)),
                   sim::FleetPolicy::kPlanner,
                   sim::FleetConfig{}.planner_cache.capacity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_fleet(config));
  }
}
BENCHMARK(BM_FleetPlannerCached)
    ->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void BM_FleetPlannerNaive(benchmark::State& state) {
  const auto config = fleet_config(static_cast<std::size_t>(state.range(0)),
                                   sim::FleetPolicy::kPlanner, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_fleet(config));
  }
}
BENCHMARK(BM_FleetPlannerNaive)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Fleet planner cache",
      "Eq. 11 planner on every fleet client via the context-quantized "
      "decision cache: policy throughput rows, pinned cache counters, "
      "quantization sensitivity, rich-engine quantization error");
  policy_comparison();
  quantization_sensitivity();
  rich_engine_quantization_error();
  return eacs::bench::run_benchmarks(argc, argv);
}
