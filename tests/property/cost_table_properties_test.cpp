// Certification suite for the TaskCostTable hot-path cache: cached edge
// costs, plans and online decisions must be BIT-IDENTICAL (EXPECT_EQ on
// doubles, no tolerance) to the pre-table Objective::task_cost formulation,
// over randomized ladders / signal / vibration / bandwidth, for all three
// solvers and the rolling-horizon selector. Also pins the deterministic
// CostStats eval counters: O(N*M) model evaluations per cached plan vs.
// O(N*M^2) for the reference formulation.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "eacs/core/cost_stats.h"
#include "eacs/core/cost_table.h"
#include "eacs/core/graph.h"
#include "eacs/core/horizon.h"
#include "eacs/core/online.h"
#include "eacs/core/optimal.h"
#include "eacs/media/bitrate_ladder.h"
#include "eacs/net/bandwidth_estimator.h"
#include "eacs/util/rng.h"

namespace eacs::core {
namespace {

Objective make_objective(double alpha, bool context_aware = true) {
  ObjectiveConfig config;
  config.alpha = alpha;
  config.context_aware = context_aware;
  return Objective(qoe::QoeModel{}, power::PowerModel{}, config);
}

/// Randomized task environments with a randomized (strictly ascending)
/// ladder: sizes, duration, signal, vibration and bandwidth all drawn fresh.
std::vector<TaskEnvironment> random_tasks(std::size_t n, std::size_t m,
                                          std::uint64_t seed) {
  eacs::Rng rng(seed);
  std::vector<TaskEnvironment> tasks;
  tasks.reserve(n);
  std::vector<double> sizes;
  double size = rng.uniform(0.1, 1.0);
  for (std::size_t level = 0; level < m; ++level) {
    sizes.push_back(size);
    size += rng.uniform(0.05, 3.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    TaskEnvironment env;
    env.index = i;
    env.duration_s = rng.uniform(0.5, 6.0);
    env.signal_dbm = rng.uniform(-120.0, -80.0);
    env.vibration = rng.uniform(0.0, 8.0);  // past the clamp-inducing range
    env.bandwidth_mbps = rng.uniform(0.3, 40.0);
    env.size_megabits = sizes;
    tasks.push_back(std::move(env));
  }
  return tasks;
}

/// A degenerate ladder with duplicated rungs: duplicate sizes produce exact
/// cost ties between levels, the regime where solver tie-breaking matters.
std::vector<TaskEnvironment> tied_tasks(std::size_t n, std::uint64_t seed) {
  auto tasks = random_tasks(n, 6, seed);
  for (auto& env : tasks) {
    env.size_megabits = {1.0, 1.0, 2.0, 2.0, 3.0, 3.0};
  }
  return tasks;
}

/// The pre-change formulation of a plan's cost, summed edge by edge.
double legacy_plan_cost(const Objective& objective,
                        const std::vector<TaskEnvironment>& tasks,
                        const std::vector<std::size_t>& levels, double buffer_s) {
  double cost = objective.task_cost(tasks[0], levels[0], std::nullopt, buffer_s);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    cost += objective.task_cost(tasks[i], levels[i], levels[i - 1], buffer_s);
  }
  return cost;
}

struct Params {
  std::uint64_t seed;
  std::size_t num_levels;
  double alpha;
};

class CostTableBitIdentity : public ::testing::TestWithParam<Params> {};

TEST_P(CostTableBitIdentity, EdgeCostEqualsTaskCostExactly) {
  const auto [seed, m, alpha] = GetParam();
  const Objective objective = make_objective(alpha);
  const auto tasks = random_tasks(8, m, seed);
  for (const double buffer_s : {5.0, 30.0}) {
    for (const auto& env : tasks) {
      const TaskCostTable table(objective, env, buffer_s);
      ASSERT_EQ(table.num_levels(), m);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(table.edge_cost(j),
                  objective.task_cost(env, j, std::nullopt, buffer_s))
            << "level " << j << " buffer " << buffer_s;
        for (std::size_t jp = 0; jp < m; ++jp) {
          EXPECT_EQ(table.edge_cost(j, jp),
                    objective.task_cost(env, j, jp, buffer_s))
              << "level " << j << " prev " << jp << " buffer " << buffer_s;
        }
      }
    }
  }
}

TEST_P(CostTableBitIdentity, ComponentsMatchTheirModelDefinitions) {
  const auto [seed, m, alpha] = GetParam();
  const Objective objective = make_objective(alpha);
  const auto tasks = random_tasks(4, m, seed);
  const double buffer_s = 30.0;
  for (const auto& env : tasks) {
    const TaskCostTable table(objective, env, buffer_s);
    const std::size_t top = m - 1;
    EXPECT_EQ(table.energy_max(), objective.task_energy(env, top, buffer_s));
    EXPECT_EQ(table.quality_max(),
              objective.task_qoe(env, top, std::nullopt,
                                 objective.config().buffer_threshold_s));
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(table.energy(j), objective.task_energy(env, j, buffer_s));
      EXPECT_EQ(table.rebuffer_s(j),
                objective.expected_rebuffer_s(env.size_megabits[j],
                                              env.bandwidth_mbps, buffer_s));
    }
  }
}

TEST_P(CostTableBitIdentity, CachedDpPlanBitIdenticalToReference) {
  const auto [seed, m, alpha] = GetParam();
  const Objective objective = make_objective(alpha);
  OptimalPlanner planner(objective);
  const auto tasks = random_tasks(30, m, seed);
  const auto cached = planner.plan(tasks, PlannerMethod::kDagDp);
  const auto reference = planner.plan_reference(tasks);
  EXPECT_EQ(cached.levels, reference.levels);
  EXPECT_EQ(cached.total_cost, reference.total_cost);  // bitwise, no tolerance
  EXPECT_EQ(legacy_plan_cost(objective, tasks, cached.levels, 30.0),
            cached.total_cost);
}

TEST_P(CostTableBitIdentity, ContextAwareAblationStaysBitIdentical) {
  const auto [seed, m, alpha] = GetParam();
  const Objective objective = make_objective(alpha, /*context_aware=*/false);
  OptimalPlanner planner(objective);
  const auto tasks = random_tasks(15, m, seed);
  const auto cached = planner.plan(tasks, PlannerMethod::kDagDp);
  const auto reference = planner.plan_reference(tasks);
  EXPECT_EQ(cached.levels, reference.levels);
  EXPECT_EQ(cached.total_cost, reference.total_cost);
}

TEST_P(CostTableBitIdentity, AllThreeSolversReturnIdenticalPlans) {
  const auto [seed, m, alpha] = GetParam();
  const Objective objective = make_objective(alpha);
  OptimalPlanner planner(objective);
  const auto tasks = random_tasks(20, m, seed);

  const auto dp = planner.plan(tasks, PlannerMethod::kDagDp);
  const auto dijkstra = planner.plan(tasks, PlannerMethod::kDijkstra);
  const auto graph = build_selection_graph(objective, tasks);
  const auto bellman_ford = bellman_ford_shortest_path(graph);

  EXPECT_EQ(dp.levels, dijkstra.levels);
  EXPECT_EQ(dp.levels, bellman_ford.levels);
  // Total costs accumulate in different orders (DP prefix sums vs. offset
  // Dijkstra vs. BF), so cost equality is near, not bitwise.
  EXPECT_NEAR(dp.total_cost, dijkstra.total_cost, 1e-9);
  EXPECT_NEAR(dp.total_cost, bellman_ford.total_cost, 1e-9);
}

TEST_P(CostTableBitIdentity, ReferenceLevelMatchesLegacyArgmin) {
  const auto [seed, m, alpha] = GetParam();
  const Objective objective = make_objective(alpha);
  const auto tasks = random_tasks(12, m, seed);
  for (const double buffer_s : {2.0, 30.0}) {
    for (const auto& env : tasks) {
      std::size_t legacy_best = 0;
      double legacy_cost = objective.task_cost(env, 0, std::nullopt, buffer_s);
      for (std::size_t level = 1; level < m; ++level) {
        const double cost = objective.task_cost(env, level, std::nullopt, buffer_s);
        if (cost < legacy_cost) {
          legacy_cost = cost;
          legacy_best = level;
        }
      }
      EXPECT_EQ(objective.reference_level(env, buffer_s), legacy_best);
    }
  }
}

// The random ladders price e(s) inside its clamps, with no tail term and no
// zero-size rung. Here the table's one e(s) per task meets both clamps
// (-40 and -160 dBm), the tail term (tail_energy_j > 0, charged only on a
// rung with bytes to move) and a zero-size lowest rung.
TEST_P(CostTableBitIdentity, ClampedSignalsTailAndZeroSizeRung) {
  const auto [seed, m, alpha] = GetParam();
  power::PowerModelParams power_params;
  power_params.tail_energy_j = 0.3;
  ObjectiveConfig config;
  config.alpha = alpha;
  const Objective objective(qoe::QoeModel{}, power::PowerModel(power_params),
                            config);
  auto tasks = random_tasks(6, m, seed);
  const double signals[] = {-40.0, -160.0, -100.0};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].signal_dbm = signals[i % 3];
    tasks[i].size_megabits.front() = 0.0;
  }
  const std::size_t n = tasks.size();
  for (const double buffer_s : {5.0, 30.0}) {
    CostStats stats;
    std::vector<TaskCostTable> tables;
    {
      CostStatsScope scope(stats);
      tables = build_cost_tables(objective, tasks, buffer_s);
    }
    EXPECT_EQ(stats.power_model_evals, n * m);
    ASSERT_EQ(tables.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const TaskEnvironment& env = tasks[i];
      EXPECT_EQ(tables[i].energy(0), objective.task_energy(env, 0, buffer_s));
      EXPECT_EQ(tables[i].energy_max(),
                objective.task_energy(env, m - 1, buffer_s));
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(tables[i].edge_cost(j),
                  objective.task_cost(env, j, std::nullopt, buffer_s))
            << "task " << i << " level " << j;
        for (std::size_t jp = 0; jp < m; ++jp) {
          EXPECT_EQ(tables[i].edge_cost(j, jp),
                    objective.task_cost(env, j, jp, buffer_s))
              << "task " << i << " level " << j << " prev " << jp;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomLadders, CostTableBitIdentity,
    ::testing::Values(Params{101, 2, 0.5}, Params{102, 5, 0.5},
                      Params{103, 14, 0.5}, Params{104, 9, 0.2},
                      Params{105, 14, 0.8}, Params{106, 3, 0.0},
                      Params{107, 16, 1.0}, Params{108, 7, 0.35}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "seed" + std::to_string(info.param.seed) + "_m" +
             std::to_string(info.param.num_levels) + "_alpha" +
             std::to_string(static_cast<int>(info.param.alpha * 100));
    });

TEST(CostTableTies, DuplicateRungsBreakTiesIdenticallyAcrossSolvers) {
  // Duplicate ladder sizes make distinct levels carry bitwise-equal edge
  // costs; all three solvers must still reconstruct the same plan (the
  // lowest-index tie-break).
  for (std::uint64_t seed = 201; seed <= 206; ++seed) {
    const Objective objective = make_objective(seed % 2 == 0 ? 0.5 : 0.3);
    OptimalPlanner planner(objective);
    const auto tasks = tied_tasks(15, seed);
    const auto dp = planner.plan(tasks, PlannerMethod::kDagDp);
    const auto dijkstra = planner.plan(tasks, PlannerMethod::kDijkstra);
    const auto bellman_ford =
        bellman_ford_shortest_path(build_selection_graph(objective, tasks));
    EXPECT_EQ(dp.levels, planner.plan_reference(tasks).levels) << "seed " << seed;
    EXPECT_EQ(dp.levels, dijkstra.levels) << "seed " << seed;
    EXPECT_EQ(dp.levels, bellman_ford.levels) << "seed " << seed;
  }
}

TEST(CostTableReweight, ReweightedTableMatchesFreshObjective) {
  // The Pareto sweep's reuse path: build at one alpha, reweight to another,
  // compare against a table/objective built at the target alpha directly.
  const auto tasks = random_tasks(10, 11, 301);
  const Objective base = make_objective(0.0);
  auto tables = build_cost_tables(base, tasks, 30.0);
  for (const double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Objective fresh = make_objective(alpha);
    for (auto& table : tables) table.reweight(alpha);
    const auto reweighted = plan_over_cost_tables(tables);
    const auto direct = OptimalPlanner(fresh).plan(tasks, PlannerMethod::kDagDp);
    EXPECT_EQ(reweighted.levels, direct.levels) << "alpha " << alpha;
    EXPECT_EQ(reweighted.total_cost, direct.total_cost) << "alpha " << alpha;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      for (std::size_t j = 0; j < tables[i].num_levels(); ++j) {
        EXPECT_EQ(tables[i].edge_cost(j),
                  fresh.task_cost(tasks[i], j, std::nullopt, 30.0));
      }
    }
  }
}

TEST(CostTableHorizon, SelectorMatchesLegacyTaskCostFormulation) {
  // Reimplements the pre-table rolling-horizon DP with Objective::task_cost
  // and asserts the selector (now table-backed) commits the same level.
  const media::VideoManifest manifest("cert", 120.0, 2.0,
                                      media::BitrateLadder::evaluation14());
  const std::size_t m = manifest.ladder().size();
  for (std::uint64_t seed = 401; seed <= 404; ++seed) {
    eacs::Rng rng(seed);
    const Objective objective = make_objective(0.5);
    RollingHorizonSelector selector(objective, {.horizon = 5});
    net::HarmonicMeanEstimator estimator(20);
    for (int i = 0; i < 10; ++i) estimator.observe(rng.uniform(1.0, 25.0));

    player::AbrContext ctx;
    ctx.segment_index = static_cast<std::size_t>(rng.uniform_int(0, 50));
    ctx.num_segments = manifest.num_segments();
    ctx.buffer_s = rng.uniform(0.0, 30.0);
    ctx.startup_phase = false;
    ctx.prev_level = static_cast<std::size_t>(rng.uniform_int(0, 13));
    ctx.manifest = &manifest;
    ctx.bandwidth = &estimator;
    ctx.vibration_level = rng.uniform(0.0, 7.5);
    ctx.signal_dbm = rng.uniform(-118.0, -82.0);

    // Legacy window construction + DP, verbatim from the pre-table selector.
    const std::size_t remaining = manifest.num_segments() - ctx.segment_index;
    const std::size_t window = std::min<std::size_t>(5, remaining);
    std::vector<TaskEnvironment> tasks;
    for (std::size_t k = 0; k < window; ++k) {
      TaskEnvironment env;
      env.index = ctx.segment_index + k;
      env.duration_s = manifest.segment_duration(env.index);
      env.signal_dbm = ctx.signal_dbm;
      env.vibration = ctx.vibration_level;
      env.bandwidth_mbps = estimator.estimate();
      for (std::size_t level = 0; level < m; ++level) {
        env.size_megabits.push_back(manifest.segment_size_megabits(env.index, level));
      }
      tasks.push_back(std::move(env));
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dp(m, kInf);
    std::vector<std::size_t> first_action(m, 0);
    for (std::size_t j = 0; j < m; ++j) {
      dp[j] = objective.task_cost(tasks[0], j, ctx.prev_level, ctx.buffer_s);
      first_action[j] = j;
    }
    std::vector<double> next(m, kInf);
    std::vector<std::size_t> next_first(m, 0);
    for (std::size_t k = 1; k < tasks.size(); ++k) {
      std::fill(next.begin(), next.end(), kInf);
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t jp = 0; jp < m; ++jp) {
          const double candidate =
              dp[jp] + objective.task_cost(tasks[k], j, jp, ctx.buffer_s);
          if (candidate < next[j]) {
            next[j] = candidate;
            next_first[j] = first_action[jp];
          }
        }
      }
      dp.swap(next);
      first_action.swap(next_first);
    }
    std::size_t best = 0;
    for (std::size_t j = 1; j < m; ++j) {
      if (dp[j] < dp[best]) best = j;
    }

    EXPECT_EQ(selector.choose_level(ctx), first_action[best]) << "seed " << seed;
  }
}

TEST(OnlineRungTerms, LevelsEqualTheThreeArgumentTableArgmin) {
  // The online selector keeps the rung terms of the last ladder it priced
  // and reuses them while a segment's duration and sizes keep their bits.
  // With smoothing off its level is the reference level, so each decision
  // must equal the argmin of a table that builds its own terms (the
  // three-argument constructor) and count what that table counts. 3 s
  // segments over 100 s leave a 1 s last segment; the VBR amplitudes give
  // every segment its own sizes at one duration. Segments come in order,
  // then at random, so the stored ladder keeps changing.
  const Objective objective = make_objective(0.5);
  const std::size_t m = media::BitrateLadder::evaluation14().size();
  for (const double amplitude : {0.0, 0.25, 0.6}) {
    const media::VideoManifest manifest("rungs", 100.0, 3.0,
                                        media::BitrateLadder::evaluation14(),
                                        media::VbrModel{amplitude});
    const std::size_t n = manifest.num_segments();
    ASSERT_LT(manifest.segment_duration(n - 1), manifest.segment_duration(0));
    OnlineBitrateSelector selector(objective, {.smoothing = false});
    eacs::Rng rng(static_cast<std::uint64_t>(amplitude * 100.0) + 811);
    CostStats got;
    CostStats want;
    for (std::size_t d = 0; d < 4 * n; ++d) {
      const std::size_t segment =
          d < n ? d
                : static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      net::HarmonicMeanEstimator estimator(20);
      for (int k = 0; k < 3; ++k) estimator.observe(rng.uniform(0.5, 30.0));
      player::AbrContext ctx;
      ctx.segment_index = segment;
      ctx.num_segments = n;
      ctx.buffer_s = rng.uniform(0.0, 30.0);
      ctx.startup_phase = false;
      ctx.prev_level = static_cast<std::size_t>(rng.uniform_int(0, 13));
      ctx.manifest = &manifest;
      ctx.bandwidth = &estimator;
      ctx.vibration_level = rng.uniform(0.0, 7.5);
      ctx.signal_dbm = rng.uniform(-118.0, -82.0);
      std::size_t chosen = 0;
      {
        CostStatsScope scope(got);
        chosen = selector.choose_level(ctx);
      }

      TaskEnvironment env;
      env.index = segment;
      env.duration_s = manifest.segment_duration(segment);
      env.signal_dbm = ctx.signal_dbm;
      env.vibration = ctx.vibration_level;
      env.bandwidth_mbps = estimator.estimate();
      for (std::size_t level = 0; level < m; ++level) {
        env.size_megabits.push_back(manifest.segment_size_megabits(segment, level));
      }
      std::size_t best = 0;
      {
        CostStatsScope scope(want);
        const TaskCostTable table(objective, env, ctx.buffer_s);
        for (std::size_t level = 1; level < m; ++level) {
          if (table.edge_cost(level) < table.edge_cost(best)) best = level;
        }
        want.edge_evals += m;  // what reference_level counts per decision
      }
      EXPECT_EQ(chosen, best) << "amplitude " << amplitude << " decision " << d
                              << " segment " << segment;
    }
    EXPECT_EQ(got, want) << "amplitude " << amplitude;
    EXPECT_EQ(got.tables_built, 4 * n);
  }
}

TEST(CostStatsCounters, CachedPlanDoesLinearModelEvals) {
  const Objective objective = make_objective(0.5);
  OptimalPlanner planner(objective);
  // 300 x 14 is the paper's evaluation grid.
  for (const std::uint64_t n : {25, 300}) {
    const std::uint64_t m = 14;
    const auto tasks = random_tasks(n, m, 501);

    CostStats cached;
    {
      CostStatsScope scope(cached);
      planner.plan(tasks, PlannerMethod::kDagDp);
    }
    // One table per task: M power evals + (M+1) QoE evals each — O(N*M).
    EXPECT_EQ(cached.power_model_evals, n * m) << n;
    EXPECT_EQ(cached.qoe_model_evals, n * (m + 1)) << n;
    EXPECT_EQ(cached.tables_built, n) << n;
    EXPECT_EQ(cached.edge_evals, m + (n - 1) * m * m) << n;
    EXPECT_EQ(cached.plans, 1U) << n;

    CostStats reference;
    {
      CostStatsScope scope(reference);
      planner.plan_reference(tasks);
    }
    // Uncached: every edge re-evaluates 2 energy + 2 QoE models — O(N*M^2).
    const std::uint64_t edges = m + (n - 1) * m * m;
    EXPECT_EQ(reference.edge_evals, edges) << n;
    EXPECT_EQ(reference.power_model_evals, 2 * edges) << n;
    EXPECT_EQ(reference.qoe_model_evals, 2 * edges) << n;
    EXPECT_EQ(reference.tables_built, 0U) << n;

    // The headline ratio: cached does strictly fewer model evaluations by an
    // O(M) factor.
    EXPECT_LT(cached.model_evals() * 20, reference.model_evals()) << n;
  }
}

// build_cost_tables shares one set of rung terms among the tasks on the
// first task's ladder (same duration and sizes) and builds its own for any
// other task. Each window kind must still price every edge exactly as
// task_cost does, with the counters of one table per task.
TEST(CostStatsCounters, SharedRungTermsKeepTablesAndCounters) {
  const Objective objective = make_objective(0.5);
  const std::vector<double> ladder =
      media::BitrateLadder::evaluation14().bitrates();
  const std::size_t m = ladder.size();
  const std::size_t n = 5;
  const auto segment = [&](double duration_s) {
    std::vector<double> sizes;
    for (const double mbps : ladder) sizes.push_back(mbps * duration_s);
    return sizes;
  };
  // One ladder: the fleet's and the CBR evaluation's windows. Context and
  // bandwidth vary per task.
  std::vector<TaskEnvironment> one_ladder = random_tasks(n, m, 601);
  for (TaskEnvironment& env : one_ladder) {
    env.duration_s = 2.0;
    env.size_megabits = segment(2.0);
  }
  // VBR: every other task's sizes scaled, at the same duration.
  std::vector<TaskEnvironment> vbr = one_ladder;
  for (std::size_t i = 1; i < n; i += 2) {
    for (double& size : vbr[i].size_megabits) size *= 1.0 + 0.1 * i;
  }
  // A short last segment: shorter, with the sizes of that duration.
  std::vector<TaskEnvironment> short_last = one_ladder;
  short_last.back().duration_s = 0.75;
  short_last.back().size_megabits = segment(0.75);
  // The first task's sizes over another duration: the bitrates differ.
  std::vector<TaskEnvironment> other_duration = one_ladder;
  other_duration.back().duration_s = 1.5;

  for (const auto* window : {&one_ladder, &vbr, &short_last, &other_duration}) {
    for (const double buffer_s : {5.0, 30.0}) {
      CostStats stats;
      std::vector<TaskCostTable> tables;
      {
        CostStatsScope scope(stats);
        tables = build_cost_tables(objective, *window, buffer_s);
      }
      EXPECT_EQ(stats.power_model_evals, n * m);
      EXPECT_EQ(stats.qoe_model_evals, n * (m + 1));
      EXPECT_EQ(stats.tables_built, n);
      ASSERT_EQ(tables.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const TaskEnvironment& env = (*window)[i];
        EXPECT_EQ(tables[i].quality_max(),
                  objective.task_qoe(env, m - 1, std::nullopt,
                                     objective.config().buffer_threshold_s));
        for (std::size_t j = 0; j < m; ++j) {
          EXPECT_EQ(tables[i].edge_cost(j),
                    objective.task_cost(env, j, std::nullopt, buffer_s))
              << "task " << i << " level " << j;
          for (std::size_t jp = 0; jp < m; ++jp) {
            EXPECT_EQ(tables[i].edge_cost(j, jp),
                      objective.task_cost(env, j, jp, buffer_s))
                << "task " << i << " level " << j << " prev " << jp;
          }
        }
      }
    }
  }
}

TEST(CostStatsCounters, ScopesNestAndRestore) {
  const auto tasks = random_tasks(3, 4, 502);
  const Objective objective = make_objective(0.5);
  CostStats outer;
  {
    CostStatsScope outer_scope(outer);
    CostStats inner;
    {
      CostStatsScope inner_scope(inner);
      (void)objective.task_cost(tasks[0], 0, std::nullopt, 30.0);
    }
    EXPECT_EQ(inner.edge_evals, 1U);
    EXPECT_EQ(inner.power_model_evals, 2U);
    EXPECT_EQ(inner.qoe_model_evals, 2U);
    (void)objective.task_cost(tasks[0], 1, std::nullopt, 30.0);
  }
  EXPECT_EQ(outer.edge_evals, 1U);  // only the call outside the inner scope
  EXPECT_EQ(CostStatsScope::current(), nullptr);
}

TEST(EmptyLadderGuards, PlannerAndGraphThrowInvalidArgument) {
  // Regression: an all-empty ladder used to run straight into
  // size_megabits.front()/at() undefined behaviour downstream.
  const Objective objective = make_objective(0.5);
  OptimalPlanner planner(objective);
  std::vector<TaskEnvironment> tasks(3);
  for (auto& env : tasks) {
    env.duration_s = 2.0;
    env.bandwidth_mbps = 10.0;
  }
  EXPECT_THROW(planner.plan(tasks, PlannerMethod::kDagDp), std::invalid_argument);
  EXPECT_THROW(planner.plan(tasks, PlannerMethod::kDijkstra), std::invalid_argument);
  EXPECT_THROW(planner.plan_reference(tasks), std::invalid_argument);
  EXPECT_THROW(build_selection_graph(objective, tasks), std::invalid_argument);
  EXPECT_THROW(TaskCostTable(objective, tasks[0], 30.0), std::invalid_argument);
  EXPECT_THROW(build_cost_tables(objective, tasks, 30.0), std::invalid_argument);
}

}  // namespace
}  // namespace eacs::core
