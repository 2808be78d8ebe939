#include "eacs/core/graph.h"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "eacs/core/cost_table.h"

namespace eacs::core {

std::string SelectionGraph::to_dot() const {
  std::ostringstream out;
  out << "digraph selection {\n  rankdir=LR;\n  node [shape=circle];\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out << "  n" << i << " [label=\"" << nodes[i].label << "\"";
    if (nodes[i].is_terminal) out << ", shape=doublecircle";
    out << "];\n";
  }
  // Keep each task's nodes on one rank (the Fig. 4 column layout).
  for (std::size_t task = 0; task < num_tasks; ++task) {
    out << "  { rank=same;";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!nodes[i].is_terminal && nodes[i].task == task) out << " n" << i << ";";
    }
    out << " }\n";
  }
  for (const auto& edge : edges) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.3f", edge.weight);
    out << "  n" << edge.from << " -> n" << edge.to << " [label=\"" << label
        << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

SelectionGraph build_selection_graph(const Objective& objective,
                                     const std::vector<TaskEnvironment>& tasks,
                                     double buffer_s) {
  if (tasks.empty()) throw std::invalid_argument("build_selection_graph: no tasks");
  const std::size_t m = tasks.front().size_megabits.size();
  if (m == 0) {
    throw std::invalid_argument(
        "build_selection_graph: empty bitrate ladder (task has no candidate sizes)");
  }
  for (const auto& env : tasks) {
    if (env.size_megabits.size() != m) {
      throw std::invalid_argument("build_selection_graph: ragged ladder");
    }
  }
  const double buffer =
      buffer_s > 0.0 ? buffer_s : objective.config().buffer_threshold_s;
  const std::size_t n = tasks.size();
  // One cost table per task: O(N*M) model evaluations to weight the graph's
  // O(N*M^2) edges (each edge is then a few cached adds/compares).
  const std::vector<TaskCostTable> tables =
      build_cost_tables(objective, tasks, buffer);

  SelectionGraph graph;
  graph.num_tasks = n;
  graph.num_levels = m;
  graph.nodes.reserve(2 + n * m);
  graph.nodes.push_back({"S", 0, 0, true});
  graph.source = 0;
  for (std::size_t task = 0; task < n; ++task) {
    for (std::size_t level = 0; level < m; ++level) {
      std::string label = "T";
      label += std::to_string(task + 1);
      label += 'R';
      label += std::to_string(level + 1);
      graph.nodes.push_back({std::move(label), task, level, false});
    }
  }
  graph.nodes.push_back({"D", 0, 0, true});
  graph.sink = graph.nodes.size() - 1;

  const auto node_of = [m](std::size_t task, std::size_t level) {
    return 1 + task * m + level;
  };

  // S -> first layer: the first task has no switch coupling.
  for (std::size_t level = 0; level < m; ++level) {
    graph.edges.push_back(
        {graph.source, node_of(0, level), tables[0].edge_cost(level)});
  }
  // Layer i-1 -> layer i: weight reads both endpoints (switch term).
  for (std::size_t task = 1; task < n; ++task) {
    for (std::size_t prev = 0; prev < m; ++prev) {
      for (std::size_t level = 0; level < m; ++level) {
        graph.edges.push_back({node_of(task - 1, prev), node_of(task, level),
                               tables[task].edge_cost(level, prev)});
      }
    }
  }
  // Last layer -> D: weight 0 (the paper's construction).
  for (std::size_t level = 0; level < m; ++level) {
    graph.edges.push_back({node_of(n - 1, level), graph.sink, 0.0});
  }
  return graph;
}

GraphShortestPath bellman_ford_shortest_path(const SelectionGraph& graph) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  std::vector<double> dist(graph.nodes.size(), kInfinity);
  std::vector<std::size_t> parent(graph.nodes.size(), graph.source);
  dist[graph.source] = 0.0;

  // |V|-1 relaxation rounds suffice in general; here the edge list is
  // emitted in topological order (S-edges, then layers ascending, then sink
  // edges), so a single pass propagates the whole layered DAG and a second
  // pass confirms quiescence. The longest S->D path has num_tasks+1 edges,
  // so num_tasks+2 rounds is a safe cap even if the edge order changes.
  //
  // The comparison is a strict `<` with no tolerance: on an exact cost tie
  // the first (lowest-index) predecessor wins, which is the same tie-break
  // as the DP's ascending strict-< scan and the offset-Dijkstra's
  // lowest-predecessor rule — all three solvers reconstruct identical plans.
  const std::size_t rounds = graph.num_tasks + 2;
  for (std::size_t round = 0; round < rounds; ++round) {
    bool changed = false;
    for (const auto& edge : graph.edges) {
      if (dist[edge.from] == kInfinity) continue;
      const double candidate = dist[edge.from] + edge.weight;
      if (candidate < dist[edge.to]) {
        dist[edge.to] = candidate;
        parent[edge.to] = edge.from;
        changed = true;
      }
    }
    if (!changed) break;
  }

  GraphShortestPath path;
  path.total_cost = dist[graph.sink];
  path.levels.assign(graph.num_tasks, 0);
  std::size_t cursor = parent[graph.sink];
  while (cursor != graph.source) {
    const GraphNode& node = graph.nodes[cursor];
    path.levels[node.task] = node.level;
    cursor = parent[cursor];
  }
  return path;
}

}  // namespace eacs::core
