// Planner hot path: plan latency and deterministic model-eval counters for
// the TaskCostTable cache vs. the uncached task_cost formulation, over
// N-segment x M-rung grids (the paper's evaluation uses 300 x 14).
//
// The certified claim is counter-based, not wall-clock: a cached plan
// performs exactly N*(2M+1) QoE/power model evaluations (one table per
// task), the reference formulation 4*(M + (N-1)*M^2) (four per edge).
// CostStatsCounters.CachedPlanDoesLinearModelEvals pins both formulas on
// the 25 x 14 and 300 x 14 grids, and ParetoTest.SweepBuildsOneTablePerTask
// pins the sweep's table count; the >= 5x latency speedup is the local
// headline (see EXPERIMENTS.md).

#include <chrono>
#include <cinttypes>

#include "bench_common.h"
#include "eacs/core/cost_stats.h"
#include "eacs/core/horizon.h"
#include "eacs/core/optimal.h"
#include "eacs/core/pareto.h"
#include "eacs/util/rng.h"

namespace {

using namespace eacs;

std::vector<core::TaskEnvironment> make_tasks(std::size_t n, std::size_t m,
                                              std::uint64_t seed) {
  eacs::Rng rng(seed);
  std::vector<core::TaskEnvironment> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::TaskEnvironment env;
    env.index = i;
    env.duration_s = 2.0;
    env.signal_dbm = rng.uniform(-115.0, -85.0);
    env.vibration = rng.uniform(0.0, 7.0);
    env.bandwidth_mbps = rng.uniform(2.0, 30.0);
    for (std::size_t level = 0; level < m; ++level) {
      env.size_megabits.push_back(0.2 * static_cast<double>(level + 1) * 2.0);
    }
    tasks.push_back(std::move(env));
  }
  return tasks;
}

core::Objective make_objective() {
  return core::Objective(qoe::QoeModel{}, power::PowerModel{},
                         core::ObjectiveConfig{});
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
  bench::banner("Planner hot path",
                "TaskCostTable cache vs. uncached task_cost: plan latency and "
                "deterministic model-eval counters");

  std::printf("%6s %4s | %12s %12s %8s | %14s %14s %10s\n", "N", "M",
              "ref ms", "cached ms", "speedup", "ref evals", "cached evals",
              "evals/edge");
  const struct { std::size_t n, m; } grids[] = {{50, 6}, {50, 14}, {300, 14},
                                                {800, 14}};
  for (const auto& grid : grids) {
    const auto tasks = make_tasks(grid.n, grid.m, 42);
    core::OptimalPlanner planner(make_objective());

    // Deterministic counters (single instrumented run per path).
    core::CostStats cached_stats;
    core::OptimalPlan cached_plan;
    {
      core::CostStatsScope scope(cached_stats);
      cached_plan = planner.plan(tasks, core::PlannerMethod::kDagDp);
    }
    core::CostStats reference_stats;
    core::OptimalPlan reference_plan;
    {
      core::CostStatsScope scope(reference_stats);
      reference_plan = planner.plan_reference(tasks);
    }
    if (cached_plan.levels != reference_plan.levels ||
        cached_plan.total_cost != reference_plan.total_cost) {
      std::printf("BIT-IDENTITY VIOLATION at N=%zu M=%zu\n", grid.n, grid.m);
    }

    const double cached_ms = best_of_ms(
        [&] { benchmark::DoNotOptimize(planner.plan(tasks)); }, 5);
    const double reference_ms = best_of_ms(
        [&] { benchmark::DoNotOptimize(planner.plan_reference(tasks)); }, 5);
    const double speedup = cached_ms > 0.0 ? reference_ms / cached_ms : 0.0;
    const double edges = static_cast<double>(
        grid.m + (grid.n - 1) * grid.m * grid.m);

    std::printf("%6zu %4zu | %12.3f %12.3f %7.1fx | %14" PRIu64
                " %14" PRIu64 " %10.4f\n",
                grid.n, grid.m, reference_ms, cached_ms, speedup,
                reference_stats.model_evals(), cached_stats.model_evals(),
                static_cast<double>(cached_stats.model_evals()) / edges);

    const std::string suffix =
        "_n" + std::to_string(grid.n) + "_m" + std::to_string(grid.m);
    bench::record_metric("plan_ms_reference" + suffix, reference_ms);
    bench::record_metric("plan_ms_cached" + suffix, cached_ms);
    bench::record_metric("plan_speedup" + suffix, speedup);
    bench::record_metric("model_evals_reference" + suffix,
                         static_cast<double>(reference_stats.model_evals()));
    bench::record_metric("model_evals_cached" + suffix,
                         static_cast<double>(cached_stats.model_evals()));
    bench::record_metric("edge_evals" + suffix,
                         static_cast<double>(cached_stats.edge_evals));
  }

  // Pareto alpha sweep: tables are built once and re-weighted per alpha
  // sample, so a 21-step sweep builds N tables instead of 21*N.
  {
    const std::size_t n = 120;
    const auto tasks = make_tasks(n, 14, 7);
    core::CostStats stats;
    {
      core::CostStatsScope scope(stats);
      benchmark::DoNotOptimize(
          core::compute_pareto_front(tasks, qoe::QoeModel{}, power::PowerModel{}, 21));
    }
    std::printf("\nPareto sweep (21 alphas, N=%zu): %" PRIu64
                " tables built (uncached formulation: %zu)\n",
                n, stats.tables_built, 21 * n);
    bench::record_metric("pareto_sweep21_tables_built",
                         static_cast<double>(stats.tables_built));
    bench::record_metric("pareto_sweep21_model_evals",
                         static_cast<double>(stats.model_evals()));
  }
  std::printf("\nCached plans are bit-identical to the reference formulation "
              "(certified by\ntests/property/cost_table_properties_test.cpp); "
              "counters above are exact and\nmachine-independent.\n");
}

void BM_PlanCached(benchmark::State& state) {
  const auto tasks = make_tasks(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)), 42);
  core::OptimalPlanner planner(make_objective());
  core::CostStats stats;
  std::uint64_t iterations = 0;
  {
    core::CostStatsScope scope(stats);
    for (auto _ : state) {
      benchmark::DoNotOptimize(planner.plan(tasks, core::PlannerMethod::kDagDp));
      ++iterations;
    }
  }
  if (iterations > 0) {
    state.counters["model_evals_per_plan"] =
        static_cast<double>(stats.model_evals()) / static_cast<double>(iterations);
  }
}
BENCHMARK(BM_PlanCached)
    ->Args({50, 14})
    ->Args({300, 14})
    ->Args({800, 14})
    ->Unit(benchmark::kMillisecond);

void BM_PlanReference(benchmark::State& state) {
  const auto tasks = make_tasks(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)), 42);
  core::OptimalPlanner planner(make_objective());
  core::CostStats stats;
  std::uint64_t iterations = 0;
  {
    core::CostStatsScope scope(stats);
    for (auto _ : state) {
      benchmark::DoNotOptimize(planner.plan_reference(tasks));
      ++iterations;
    }
  }
  if (iterations > 0) {
    state.counters["model_evals_per_plan"] =
        static_cast<double>(stats.model_evals()) / static_cast<double>(iterations);
  }
}
BENCHMARK(BM_PlanReference)
    ->Args({50, 14})
    ->Args({300, 14})
    ->Args({800, 14})
    ->Unit(benchmark::kMillisecond);

void BM_TableBuild(benchmark::State& state) {
  const auto tasks = make_tasks(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)), 42);
  const core::Objective objective = make_objective();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_cost_tables(objective, tasks, 30.0));
  }
}
BENCHMARK(BM_TableBuild)->Args({300, 14})->Unit(benchmark::kMillisecond);

void BM_HorizonDecisionCached(benchmark::State& state) {
  const core::Objective objective = make_objective();
  core::RollingHorizonSelector selector(objective, {.horizon = 5});
  const media::VideoManifest manifest("bench", 600.0, 2.0,
                                      media::BitrateLadder::evaluation14());
  net::HarmonicMeanEstimator estimator(20);
  for (int i = 0; i < 20; ++i) estimator.observe(8.0 + (i % 7));
  player::AbrContext ctx;
  ctx.segment_index = 100;
  ctx.num_segments = manifest.num_segments();
  ctx.buffer_s = 28.0;
  ctx.prev_level = 7;
  ctx.startup_phase = false;
  ctx.manifest = &manifest;
  ctx.bandwidth = &estimator;
  ctx.vibration_level = 6.0;
  ctx.signal_dbm = -104.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.choose_level(ctx));
  }
}
BENCHMARK(BM_HorizonDecisionCached);

void BM_ParetoSweepCached(benchmark::State& state) {
  const auto tasks = make_tasks(120, 14, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_pareto_front(
        tasks, qoe::QoeModel{}, power::PowerModel{}, 21));
  }
}
BENCHMARK(BM_ParetoSweepCached)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
