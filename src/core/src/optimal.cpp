#include "eacs/core/optimal.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "eacs/core/cost_stats.h"

namespace eacs::core {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

OptimalPlanner::OptimalPlanner(Objective objective) : objective_(std::move(objective)) {}

OptimalPlan OptimalPlanner::plan(const std::vector<TaskEnvironment>& tasks,
                                 PlannerMethod method, double buffer_s) const {
  if (tasks.empty()) return {};
  if (tasks.front().size_megabits.empty()) {
    throw std::invalid_argument(
        "OptimalPlanner: empty bitrate ladder (task has no candidate sizes)");
  }
  const double buffer =
      buffer_s > 0.0 ? buffer_s : objective_.config().buffer_threshold_s;
  switch (method) {
    case PlannerMethod::kDagDp:
      return plan_dag_dp(tasks, buffer);
    case PlannerMethod::kDijkstra:
      return plan_dijkstra(tasks, buffer);
  }
  throw std::invalid_argument("OptimalPlanner: unknown method");
}

OptimalPlan plan_over_cost_tables(const std::vector<TaskCostTable>& tables) {
  if (tables.empty()) return {};
  const std::size_t n = tables.size();
  const std::size_t m = tables.front().num_levels();

  // dp[j] = best cost of a prefix ending with task i at level j.
  std::vector<double> dp(m, kInfinity);
  std::vector<double> next(m, kInfinity);
  // parent[i * m + j] = level chosen for task i-1 on the best path to (i, j).
  std::vector<std::size_t> parent(n * m, 0);

  for (std::size_t j = 0; j < m; ++j) {
    dp[j] = tables[0].edge_cost(j);
  }

  for (std::size_t i = 1; i < n; ++i) {
    const TaskCostTable& table = tables[i];
    std::fill(next.begin(), next.end(), kInfinity);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t jp = 0; jp < m; ++jp) {
        const double weight = table.edge_cost(j, jp);
        const double candidate = dp[jp] + weight;
        if (candidate < next[j]) {
          next[j] = candidate;
          parent[i * m + j] = jp;
        }
      }
    }
    dp.swap(next);
  }

  OptimalPlan plan;
  plan.levels.assign(n, 0);
  std::size_t best = 0;
  for (std::size_t j = 1; j < m; ++j) {
    if (dp[j] < dp[best]) best = j;
  }
  plan.total_cost = dp[best];
  plan.levels[n - 1] = best;
  for (std::size_t i = n - 1; i > 0; --i) {
    plan.levels[i - 1] = parent[i * m + plan.levels[i]];
  }
  if (CostStats* stats = CostStatsScope::current()) {
    stats->edge_evals += m + (n - 1) * m * m;
    ++stats->plans;
  }
  return plan;
}

OptimalPlan OptimalPlanner::plan_dag_dp(const std::vector<TaskEnvironment>& tasks,
                                        double buffer_s) const {
  return plan_over_cost_tables(build_cost_tables(objective_, tasks, buffer_s));
}

OptimalPlan OptimalPlanner::plan_reference(const std::vector<TaskEnvironment>& tasks,
                                           double buffer_s) const {
  if (tasks.empty()) return {};
  if (tasks.front().size_megabits.empty()) {
    throw std::invalid_argument(
        "OptimalPlanner: empty bitrate ladder (task has no candidate sizes)");
  }
  const double buffer =
      buffer_s > 0.0 ? buffer_s : objective_.config().buffer_threshold_s;
  const std::size_t n = tasks.size();
  const std::size_t m = tasks.front().size_megabits.size();

  std::vector<double> dp(m, kInfinity);
  std::vector<double> next(m, kInfinity);
  std::vector<std::vector<std::size_t>> parent(n, std::vector<std::size_t>(m, 0));

  for (std::size_t j = 0; j < m; ++j) {
    dp[j] = objective_.task_cost(tasks[0], j, std::nullopt, buffer);
  }

  for (std::size_t i = 1; i < n; ++i) {
    if (tasks[i].size_megabits.size() != m) {
      throw std::invalid_argument("OptimalPlanner: ragged task ladder");
    }
    std::fill(next.begin(), next.end(), kInfinity);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t jp = 0; jp < m; ++jp) {
        const double weight = objective_.task_cost(tasks[i], j, jp, buffer);
        const double candidate = dp[jp] + weight;
        if (candidate < next[j]) {
          next[j] = candidate;
          parent[i][j] = jp;
        }
      }
    }
    dp.swap(next);
  }

  OptimalPlan plan;
  plan.levels.assign(n, 0);
  std::size_t best = 0;
  for (std::size_t j = 1; j < m; ++j) {
    if (dp[j] < dp[best]) best = j;
  }
  plan.total_cost = dp[best];
  plan.levels[n - 1] = best;
  for (std::size_t i = n - 1; i > 0; --i) {
    plan.levels[i - 1] = parent[i][plan.levels[i]];
  }
  if (CostStats* stats = CostStatsScope::current()) ++stats->plans;
  return plan;
}

OptimalPlan OptimalPlanner::plan_dijkstra(const std::vector<TaskEnvironment>& tasks,
                                          double buffer_s) const {
  const auto tables = build_cost_tables(objective_, tasks, buffer_s);
  const std::size_t n = tasks.size();
  const std::size_t m = tables.front().num_levels();
  std::uint64_t edge_evals = 0;

  // Node numbering: 0 = S; 1 + i*m + j = task i at level j; sink = 1 + n*m.
  const std::size_t num_nodes = 2 + n * m;
  const std::size_t source = 0;
  const std::size_t sink = num_nodes - 1;
  const auto node_of = [m](std::size_t i, std::size_t j) { return 1 + i * m + j; };

  // Per-layer offsets make the cached edge weights non-negative without
  // changing the argmin path (every path crosses each layer exactly once,
  // so each offset adds a constant to every path). With the table this
  // pre-pass is pure arithmetic — the uncached formulation re-evaluated the
  // entire O(N*M^2) weight set through the models before relaxation began.
  std::vector<double> layer_offset(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double most_negative = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (i == 0) {
        most_negative = std::min(most_negative, tables[0].edge_cost(j));
        ++edge_evals;
      } else {
        for (std::size_t jp = 0; jp < m; ++jp) {
          most_negative = std::min(most_negative, tables[i].edge_cost(j, jp));
          ++edge_evals;
        }
      }
    }
    layer_offset[i] = -most_negative;
  }

  std::vector<double> dist(num_nodes, kInfinity);
  std::vector<std::size_t> parent(num_nodes, source);
  using QueueEntry = std::pair<double, std::size_t>;  // (distance, node)
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
  dist[source] = 0.0;
  queue.push({0.0, source});

  const auto relax = [&](std::size_t from, std::size_t to, double weight) {
    const double candidate = dist[from] + weight;
    if (candidate < dist[to]) {
      dist[to] = candidate;
      parent[to] = from;
      queue.push({candidate, to});
    } else if (candidate == dist[to] && from < parent[to]) {
      // Exact tie: keep the lowest predecessor index. This matches the DP's
      // ascending strict-< scan over jp (and Bellman-Ford's ascending edge
      // order), so all three solvers reconstruct the same plan on ties.
      parent[to] = from;
    }
  };

  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;  // stale entry
    if (u == sink) break;

    if (u == source) {
      for (std::size_t j = 0; j < m; ++j) {
        relax(source, node_of(0, j), tables[0].edge_cost(j) + layer_offset[0]);
        ++edge_evals;
      }
      continue;
    }
    const std::size_t flat = u - 1;
    const std::size_t i = flat / m;
    const std::size_t jp = flat % m;
    if (i + 1 < n) {
      for (std::size_t j = 0; j < m; ++j) {
        relax(u, node_of(i + 1, j),
              tables[i + 1].edge_cost(j, jp) + layer_offset[i + 1]);
        ++edge_evals;
      }
    } else {
      relax(u, sink, 0.0);  // edges from the last layer to D have weight 0
    }
  }

  OptimalPlan plan;
  plan.levels.assign(n, 0);
  double offset_total = 0.0;
  for (double offset : layer_offset) offset_total += offset;
  plan.total_cost = dist[sink] - offset_total;
  std::size_t cursor = parent[sink];
  for (std::size_t i = n; i-- > 0;) {
    plan.levels[i] = (cursor - 1) % m;
    cursor = parent[cursor];
  }
  if (CostStats* stats = CostStatsScope::current()) {
    stats->edge_evals += edge_evals;
    ++stats->plans;
  }
  return plan;
}

PlannedPolicy::PlannedPolicy(OptimalPlan plan, std::string name)
    : plan_(std::move(plan)), name_(std::move(name)) {}

std::size_t PlannedPolicy::choose_level(const player::AbrContext& context) {
  if (context.segment_index < plan_.levels.size()) {
    return plan_.levels[context.segment_index];
  }
  return context.manifest->ladder().lowest_level();
}

}  // namespace eacs::core
