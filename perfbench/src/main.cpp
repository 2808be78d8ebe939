// perfbench: end-to-end and per-layer benchmark of the two session
// simulators. One process runs one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// --trace 0 (timed run): sets the workload up three times (setup_s is the
// median), then runs units in a closed loop for --seconds and at least 100
// units, so unit_ms_p90 has ten samples beyond it. Prints the end-to-end
// metrics.
// --trace 1 (traced run): sets up once with spans, then runs the workload's
// per-layer procedure and prints the per-layer metrics. Spans are written to
// --spans at exit.
//
// Human-readable notes go to stdout as '# ' lines; the last line is the JSON
// result.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

using Factory = std::function<std::unique_ptr<Workload>(std::uint64_t)>;

const std::map<std::string, Factory>& workloads() {
  static const std::map<std::string, Factory> table = {
      {"fleet_city", make_fleet_city},
      {"fleet_planner", make_fleet_planner},
      {"rich_evaluation", make_rich_evaluation},
      {"rich_cells", make_rich_cells},
  };
  return table;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, reported by every traced run. A layer a workload's
/// path never reaches reads 0 there.
constexpr MetricSpec kLayerMetrics[] = {
    {"bench.unit_ms_j1", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"sim.fleet.events_per_session", "count"},
    {"sim.fleet.useful_event_ratio", "ratio"},
    {"sim.fleet.peak_live_sessions", "count"},
    {"sim.fleet.region_event_imbalance", "ratio"},
    {"util.thread_pool.speedup_j4", "ratio"},
    {"sim.cell_network.serving_cell_ns", "ns"},
    {"sim.cell_network.signal_dbm_ns", "ns"},
    {"sim.cell_network.capacity_ns", "ns"},
    {"sim.cell_network.share", "ratio"},
    {"core.decision_cache.hit_ratio", "ratio"},
    {"core.decision_cache.consults_per_session", "count"},
    {"core.decision_cache.evictions", "count"},
    {"core.decision_cache.lookup_ns", "ns"},
    {"core.decision_cache.lookup_share", "ratio"},
    {"core.decision_cache.construct_ms", "ms"},
    {"core.decision_cache.construct_share", "ratio"},
    {"core.horizon.plans_per_session", "count"},
    {"core.horizon.model_evals_per_session", "count"},
    {"core.horizon.plan_us", "us"},
    {"core.horizon.share", "ratio"},
    {"qoe.model.segment_qoe_ns", "ns"},
    {"qoe.model.segment_qoe_share", "ratio"},
    {"power.model.task_energy_ns", "ns"},
    {"power.model.task_energy_share", "ratio"},
    {"util.stats.fold_ns", "ns"},
    {"util.stats.fold_share", "ratio"},
    {"sim.fleet.loop_share", "ratio"},
    {"core.optimal.plan_ms", "ms"},
    {"core.optimal.share", "ratio"},
    {"abr.youtube.choose_level_ns", "ns"},
    {"abr.festive.choose_level_ns", "ns"},
    {"abr.bba.choose_level_ns", "ns"},
    {"core.online.choose_level_ns", "ns"},
    {"core.optimal.choose_level_ns", "ns"},
    {"player.policy_share", "ratio"},
    {"player.engine_self_share", "ratio"},
    {"player.events_per_session.requests", "count"},
    {"player.events_per_session.drains", "count"},
    {"player.events_per_session.stalls", "count"},
    {"player.events_per_session.progress", "count"},
    {"player.events_per_session.handoffs", "count"},
    {"player.events_per_session.all", "count"},
    {"player.observer_overhead", "ratio"},
    {"sim.metrics.compute_us", "us"},
    {"trace.build_session_ms", "ms"},
};

constexpr int kSetupRepetitions = 3;
constexpr double kMaxRunSeconds = 150.0;  // hard stop for the closed loop

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1" ? 1 : 0;
    } else if (key == "--spans") {
      opt.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && workloads().count(opt.workload) == 1 &&
         opt.seconds > 0.0 && opt.trace >= 0;
}

void note(const std::string& text) { std::printf("# %s\n", text.c_str()); }

int timed_run(const Options& opt, const Factory& factory, std::int64_t process_start) {
  // Set up several times and report the median: set-up is a metric of its
  // own, so work moved into it shows. The first repetition counts from
  // process start. The last workload instance runs the timed loop.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  bool setup_ok = true;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    workload.reset();
    const std::int64_t t0 = rep == 0 ? process_start : now_ns();
    workload = factory(opt.seed);
    setup_ok = workload->setup(nullptr) && setup_ok;
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  const double elapsed_s = static_cast<double>(now_ns() - process_start) * 1e-9;
  const std::size_t min_units = min_samples_for_tail(0.9);
  const std::vector<UnitSample> samples = run_closed_loop(
      opt.seconds, min_units, kMaxRunSeconds - elapsed_s,
      [&](std::size_t i) { return workload->unit(i); });
  const LoopSummary s = summarize(samples);
  const SimulatedMeans sim = workload->simulated();

  note(opt.workload + ": " + workload->describe());
  note("set-up repetitions [s]: " + std::to_string(setup_s[0]) + " " +
       std::to_string(setup_s[1]) + " " + std::to_string(setup_s[2]));
  note("timed units: " + std::to_string(s.units) + ", failed: " +
       std::to_string(s.failed) + "; unit_ms_p90 from " + std::to_string(s.units) +
       " units, " + std::to_string(samples_beyond(s.units, 0.9)) + " beyond it");
  note("output digest: " + std::to_string(sim.digest));
  if (!setup_ok) note("verification unit FAILED its checks");
  if (!s.unit_ms_p90) note("too few units for unit_ms_p90 (need " +
                           std::to_string(min_units) + ")");

  const bool correct = setup_ok && s.failed == 0 && s.unit_ms_p90.has_value();
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"sessions_per_s", s.sessions_per_s, "1/s"},
      {"ns_per_event", s.ns_per_event, "ns"},
      {"unit_ms_p50", s.unit_ms_p50, "ms"},
      {"unit_ms_p90", s.unit_ms_p90.value_or(0.0), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"success_ratio", s.success_ratio, "ratio"},
      {"qoe_mean", sim.qoe_mean, "MOS"},
      {"energy_j_per_session", sim.energy_j_per_session, "J"},
      {"stall_s_per_session", sim.stall_s_per_session, "s"},
  };
  std::printf("%s\n", result_json(correct, s.units, s.failed, metrics).c_str());
  return 0;
}

int traced_run(const Options& opt, const Factory& factory) {
  SpanLog log;
  std::unique_ptr<Workload> workload = factory(opt.seed);
  bool setup_ok = false;
  {
    ScopedSpan span(&log, "bench.setup", -1);
    setup_ok = workload->setup(&log);
  }
  TraceResult result = workload->trace(opt.seconds, log);
  if (!opt.spans.empty()) log.write_json(opt.spans);

  note(opt.workload + " (traced): " + workload->describe());
  for (const std::string& line : result.notes) note(line);
  note("tracing overhead (traced / untraced unit time): " +
       std::to_string(result.values["bench.trace_overhead"]));
  if (!setup_ok) note("verification unit FAILED its checks");
  std::vector<Metric> metrics;
  std::vector<std::string> unused;
  for (const MetricSpec& spec : kLayerMetrics) {
    const auto it = result.values.find(spec.name);
    if (it == result.values.end()) unused.push_back(spec.name);
    metrics.push_back(
        {spec.name, it == result.values.end() ? 0.0 : it->second, spec.unit});
  }
  std::string off_path;
  for (const std::string& name : unused) off_path += " " + name;
  if (!off_path.empty()) note("not on this workload's path (reported as 0):" + off_path);

  const bool correct = setup_ok && result.failed == 0 && result.attempted > 0;
  std::printf("%s\n",
              result_json(correct, result.attempted, result.failed, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <fleet_city|fleet_planner|"
                 "rich_evaluation|rich_cells> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  try {
    const Factory& factory = workloads().at(opt.workload);
    return opt.trace == 1 ? traced_run(opt, factory)
                          : timed_run(opt, factory, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
