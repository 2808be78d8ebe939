// sim_cli: command-line front end for the trace-driven simulator.
//
//   ./examples/sim_cli [--trace N] [--algo NAME] [--alpha X]
//                      [--segment S] [--buffer B] [--no-context]
//                      [--mpd out.mpd] [--all] [--sweep] [--jobs N]
//
//   --trace N      Table V session id (1..5; default 1)
//   --algo NAME    youtube | festive | bba | bola | mpc | ours | ours-rh |
//                  optimal (default: ours)
//   --alpha X      Eq. 11 energy weight (default 0.5)
//   --segment S    segment duration seconds (default 2)
//   --buffer B     buffer threshold seconds (default 30)
//   --no-context   disable the vibration term (energy-aware only)
//   --mpd FILE     also write the session's DASH MPD manifest to FILE
//   --csv FILE     also write the per-run metrics as CSV
//   --all          run every algorithm on --trace and print the comparison
//   --sweep        run the full Section V evaluation (all traces, all
//                  algorithms) and print the headline summary
//   --sensor-faults  run the sensor-fault study: degraded-context Ours vs.
//                  clean context and a context-blind baseline, per fault
//                  scenario x intensity
//   --cdn-faults   run the CDN fault study: server-fault family x intensity
//                  x source count, with the single-source column as the
//                  retry-only baseline failover is judged against
//   --fleet        run the fleet-scale simulation (DESIGN §12): event-driven
//                  sessions over the sharded cell network, streaming
//                  distribution aggregates instead of per-session rows
//   --sessions N   fleet size for --fleet (default 10000)
//   --cells N      cell count for --fleet (default 16)
//   --regions N    mobility regions for --fleet (default 8; model parameter,
//                  not an execution knob)
//   --policy NAME  fleet client policy: "throughput" (default) or "planner"
//                  (the Eq. 11 rolling-horizon planner on every client,
//                  memoized through the context-quantized decision cache;
//                  prints cache hit/miss/plan counters)
//   --fleet-faults overlay the seeded infrastructure-fault model (DESIGN §14)
//                  on the --fleet run: correlated cell outages, capacity
//                  brownouts, signal collapses and flash crowds drawn over a
//                  horizon covering the whole run. Fixed CLI fault shape, so
//                  the run is reproducible bit-for-bit
//   --checkpoint FILE     with --fleet: cut the run at --checkpoint-at T,
//                  write the bit-exact sidecar to FILE, and exit. A later
//                  --resume FILE (any process, any --jobs) continues to the
//                  identical final metrics
//   --checkpoint-at T     sim-time cut point in seconds for --checkpoint
//   --resume FILE  with --fleet: load the sidecar written by --checkpoint and
//                  run the remainder. The config fingerprint must match the
//                  checkpointing run's (same flags except --jobs)
//   --jobs N       worker threads for --sweep / --all / --sensor-faults /
//                  --cdn-faults / --fleet (0 = all hardware threads; results
//                  are bit-identical at any value)
//
// Fleet runs end with a one-line degradation banner (degraded time, escape
// handoffs, retries, abandonments, planner sheds, wasted energy) and a
// machine-parsable "fleet-counters:" line that the kill-and-resume ctest
// entries in examples/CMakeLists.txt pin exactly.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>

#include "eacs/abr/bba.h"
#include "eacs/abr/bola.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/abr/mpc.h"
#include "eacs/core/horizon.h"
#include "eacs/core/online.h"
#include "eacs/core/optimal.h"
#include "eacs/media/mpd.h"
#include "eacs/sim/cdn_fault_study.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_checkpoint.h"
#include "eacs/sim/fleet_faults.h"
#include "eacs/sim/report.h"
#include "eacs/sim/sensor_fault_study.h"
#include "eacs/util/table.h"
#include "eacs/util/thread_pool.h"

namespace {

using namespace eacs;

struct CliOptions {
  int trace_id = 1;
  std::string algo = "ours";
  double alpha = 0.5;
  double segment_s = 2.0;
  double buffer_s = 30.0;
  bool context_aware = true;
  bool run_all = false;
  bool sweep = false;
  bool sensor_faults = false;
  bool cdn_faults = false;
  bool fleet = false;
  bool fleet_faults = false;
  std::size_t fleet_sessions = 10000;
  std::size_t fleet_cells = 16;
  std::size_t fleet_regions = 8;
  std::string fleet_policy = "throughput";
  std::string checkpoint_path;
  double checkpoint_at_s = 0.0;
  std::string resume_path;
  std::size_t jobs = 1;
  std::string mpd_path;
  std::string csv_path;
};

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr, "sim_cli: %s\n", message);
  std::fprintf(stderr,
               "usage: sim_cli [--trace N] [--algo NAME] [--alpha X] [--segment S]\n"
               "               [--buffer B] [--no-context] [--mpd FILE] [--all]\n"
               "               [--sweep] [--sensor-faults] [--cdn-faults] [--jobs N]\n"
               "               [--fleet] [--sessions N] [--cells N] [--regions N]\n"
               "               [--policy throughput|planner] [--fleet-faults]\n"
               "               [--checkpoint FILE --checkpoint-at T] [--resume FILE]\n");
  std::exit(2);
}

/// Reads all of `text` as a T. A malformed token, a parsed prefix, an
/// out-of-range integer, NaN or infinity is a usage error.
template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || stop != end || !std::isfinite(static_cast<double>(value))) {
    const char* kind = std::is_integral_v<T> ? "an integer" : "a finite number";
    usage_error((flag + " needs " + kind + ", got '" + text + "'").c_str());
  }
  return value;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    const auto real = [&] { return parse_number<double>(arg, next_value()); };
    const auto integer = [&] { return parse_number<int>(arg, next_value()); };
    if (arg == "--trace") options.trace_id = integer();
    else if (arg == "--algo") options.algo = next_value();
    else if (arg == "--alpha") options.alpha = real();
    else if (arg == "--segment") options.segment_s = real();
    else if (arg == "--buffer") options.buffer_s = real();
    else if (arg == "--no-context") options.context_aware = false;
    else if (arg == "--mpd") options.mpd_path = next_value();
    else if (arg == "--csv") options.csv_path = next_value();
    else if (arg == "--all") options.run_all = true;
    else if (arg == "--sweep") options.sweep = true;
    else if (arg == "--sensor-faults") options.sensor_faults = true;
    else if (arg == "--cdn-faults") options.cdn_faults = true;
    else if (arg == "--fleet") options.fleet = true;
    else if (arg == "--fleet-faults") options.fleet_faults = true;
    else if (arg == "--checkpoint") options.checkpoint_path = next_value();
    else if (arg == "--checkpoint-at") options.checkpoint_at_s = real();
    else if (arg == "--resume") options.resume_path = next_value();
    else if (arg == "--policy") {
      options.fleet_policy = next_value();
      if (options.fleet_policy != "throughput" &&
          options.fleet_policy != "planner") {
        usage_error("--policy must be \"throughput\" or \"planner\"");
      }
    }
    else if (arg == "--sessions" || arg == "--cells" || arg == "--regions") {
      const int value = integer();
      if (value < 1) usage_error((arg + " must be >= 1").c_str());
      (arg == "--sessions"  ? options.fleet_sessions
       : arg == "--cells"   ? options.fleet_cells
                            : options.fleet_regions) =
          static_cast<std::size_t>(value);
    }
    else if (arg == "--jobs") {
      const int jobs = integer();
      if (jobs < 0) usage_error("--jobs must be >= 0");
      options.jobs = static_cast<std::size_t>(jobs);
    }
    else usage_error(("unknown argument " + arg).c_str());
  }
  if (options.trace_id < 1 || options.trace_id > 5) {
    usage_error("--trace must be 1..5");
  }
  if (options.alpha < 0.0 || options.alpha > 1.0) usage_error("--alpha must be in [0,1]");
  const bool fleet_only = options.fleet_faults || !options.checkpoint_path.empty() ||
                          !options.resume_path.empty();
  if (fleet_only && !options.fleet) {
    usage_error("--fleet-faults / --checkpoint / --resume require --fleet");
  }
  if (!options.checkpoint_path.empty() && !options.resume_path.empty()) {
    usage_error("--checkpoint and --resume are mutually exclusive");
  }
  if (!options.checkpoint_path.empty() && !(options.checkpoint_at_s > 0.0)) {
    usage_error("--checkpoint requires --checkpoint-at T with T > 0");
  }
  return options;
}

std::unique_ptr<player::AbrPolicy> make_policy(const std::string& name,
                                               const core::Objective& objective,
                                               const media::VideoManifest& manifest,
                                               const trace::SessionTraces& session) {
  if (name == "youtube") return std::make_unique<abr::FixedBitrate>();
  if (name == "festive") return std::make_unique<abr::Festive>();
  if (name == "bba") return std::make_unique<abr::Bba>(5.0, 30.0);
  if (name == "bola") return std::make_unique<abr::Bola>(5.0, 30.0);
  if (name == "mpc") return std::make_unique<abr::Mpc>();
  if (name == "ours") {
    return std::make_unique<core::OnlineBitrateSelector>(
        objective, core::OnlineOptions{.startup_level = 3});
  }
  if (name == "ours-rh") {
    return std::make_unique<core::RollingHorizonSelector>(
        objective, core::HorizonOptions{.horizon = 5, .startup_level = 3});
  }
  if (name == "optimal") {
    const auto tasks = core::build_task_environments(manifest, session);
    core::OptimalPlanner planner(objective);
    return std::make_unique<core::PlannedPolicy>(planner.plan(tasks));
  }
  usage_error(("unknown algorithm '" + name + "'").c_str());
}

/// The Section V evaluation the CLI options describe: the one config behind
/// --sweep, --sensor-faults and --cdn-faults.
sim::EvaluationConfig evaluation_config(const CliOptions& options) {
  sim::EvaluationConfig config;
  config.alpha = options.alpha;
  config.segment_duration_s = options.segment_s;
  config.player.buffer_threshold_s = options.buffer_s;
  config.context_aware = options.context_aware;
  config.exec.jobs = options.jobs;
  return config;
}

}  // namespace

/// --sweep: the full Section V evaluation over all Table V sessions, fanned
/// out over options.jobs workers.
int run_sweep(const CliOptions& options) {
  const sim::EvaluationConfig config = evaluation_config(options);
  std::printf("Section V evaluation: 5 sessions x 5 algorithms, jobs=%zu\n",
              config.exec.resolved_jobs());

  const sim::Evaluation evaluation(config);
  const auto result = evaluation.run();

  eacs::AsciiTable table("Headline summary vs. Youtube");
  table.set_header({"algorithm", "mean QoE", "energy saving", "extra saving",
                    "QoE degradation", "ratio"});
  table.set_alignment({eacs::Align::kLeft, eacs::Align::kRight, eacs::Align::kRight,
                       eacs::Align::kRight, eacs::Align::kRight, eacs::Align::kRight});
  for (const auto& algo : result.algorithms()) {
    table.add_row({algo, eacs::AsciiTable::num(result.mean_qoe(algo), 2),
                   eacs::AsciiTable::percent(result.mean_energy_saving(algo), 1),
                   eacs::AsciiTable::percent(result.mean_extra_energy_saving(algo), 1),
                   eacs::AsciiTable::percent(result.mean_qoe_degradation(algo), 1),
                   eacs::AsciiTable::num(result.saving_degradation_ratio(algo), 1)});
  }
  table.print();
  if (!options.csv_path.empty()) {
    sim::write_evaluation_csv(options.csv_path, result);
    std::printf("Metrics CSV written to %s\n", options.csv_path.c_str());
  }
  return 0;
}

/// --sensor-faults: the sensor-fault study — degraded-context Ours across the
/// fault scenario x intensity grid, against clean-context Ours and a
/// context-blind BBA baseline.
int run_sensor_faults(const CliOptions& options) {
  sim::SensorFaultStudyConfig config;
  config.evaluation = evaluation_config(options);
  std::printf("Sensor-fault study: %zu scenarios x %zu intensities x 5 sessions, "
              "jobs=%zu\n",
              sim::all_sensor_fault_scenarios().size(), config.intensities.size(),
              config.evaluation.exec.resolved_jobs());

  const auto result = sim::run_sensor_fault_study(config);
  std::printf("Clean-context Ours: QoE %.3f, energy %.1f J | context-blind %s: "
              "QoE %.3f, energy %.1f J\n",
              result.clean_ours.mean_qoe, result.clean_ours.total_energy_j,
              result.context_blind.algorithm.c_str(),
              result.context_blind.mean_qoe, result.context_blind.total_energy_j);
  sim::sensor_fault_table(result).print();
  return 0;
}

/// --cdn-faults: the CDN fault study — server-fault family x intensity x
/// source count, judged against the single-source retry-only column.
int run_cdn_faults(const CliOptions& options) {
  sim::CdnFaultStudyConfig config;
  config.evaluation = evaluation_config(options);
  std::printf("CDN fault study: %zu families x %zu intensities x %zu source "
              "counts x 5 sessions, jobs=%zu\n",
              sim::all_cdn_fault_families().size(), config.intensities.size(),
              config.source_counts.size(), config.evaluation.exec.resolved_jobs());

  const auto result = sim::run_cdn_fault_study(config);
  std::printf("Fault-free single source (%s): QoE %.3f, energy %.1f J, "
              "rebuffer %.1f s\n",
              result.clean.algorithm.c_str(), result.clean.mean_qoe,
              result.clean.total_energy_j, result.clean.rebuffer_s);
  sim::cdn_fault_table(result).print();
  return 0;
}

/// --fleet: the fleet-scale simulation — event-driven sessions over the
/// sharded cell network, reported as streaming distribution aggregates.
int run_fleet_mode(const CliOptions& options) {
  sim::FleetConfig config;
  config.network.num_cells = options.fleet_cells;
  config.num_sessions = options.fleet_sessions;
  config.regions = options.fleet_regions;
  config.segment_duration_s = options.segment_s;
  config.buffer_threshold_s = options.buffer_s;
  if (!options.context_aware) config.vibration_cap_threshold = 1e9;
  if (options.fleet_policy == "planner") {
    config.policy = sim::FleetPolicy::kPlanner;
    config.planner_alpha = options.alpha;
  }
  config.exec.jobs = options.jobs;
  if (options.fleet_faults) {
    // The fixed CLI fault shape: a seeded overlay whose horizon covers the
    // whole run (arrival span plus a generous drain margin), so every run
    // with the same fleet flags reproduces the identical episode set.
    sim::SeededFaultConfig& seeded = config.faults.seeded;
    seeded.horizon_s = static_cast<double>(config.num_sessions) /
                           config.arrival_rate_per_s +
                       300.0;
    seeded.epoch_s = 60.0;
    // Half-region fault domains: outages usually leave a live cell in the
    // region, so the escape-handoff rung of the ladder gets exercised, not
    // just whole-region backoff.
    seeded.domain_cells =
        std::max<std::size_t>(config.network.num_cells / (2 * config.regions), 1);
    seeded.outage_prob = 0.25;
    seeded.outage_duration_s = 45.0;
    seeded.brownout_prob = 0.35;
    seeded.brownout_factor = 0.4;
    seeded.collapse_prob = 0.35;
    seeded.collapse_db = -18.0;
    seeded.surge_prob = 0.3;
    seeded.surge_multiplier = 3.0;
  }
  std::printf("Fleet: %zu sessions over %zu cells in %zu regions, "
              "policy=%s, faults=%s, jobs=%zu\n",
              config.num_sessions, config.network.num_cells, config.regions,
              options.fleet_policy.c_str(),
              config.faults.empty() ? "off" : "on",
              config.exec.resolved_jobs());

  if (!options.checkpoint_path.empty()) {
    const sim::FleetCheckpoint checkpoint =
        sim::run_fleet_until(config, options.checkpoint_at_s);
    sim::save_fleet_checkpoint(checkpoint, options.checkpoint_path);
    std::size_t pending = 0, live = 0;
    for (const auto& region : checkpoint.regions) {
      pending += region.events.size();
      live += region.live;
    }
    std::printf("checkpoint cut at t=%.1f s: %zu pending events, %zu live "
                "sessions across %zu regions -> %s\n",
                checkpoint.checkpoint_t_s, pending, live,
                checkpoint.regions.size(), options.checkpoint_path.c_str());
    std::printf("resume with: sim_cli --fleet ... --resume %s (identical "
                "flags; --jobs may differ)\n",
                options.checkpoint_path.c_str());
    return 0;
  }

  sim::FleetMetrics metrics;
  if (!options.resume_path.empty()) {
    const sim::FleetCheckpoint checkpoint =
        sim::load_fleet_checkpoint(options.resume_path);
    std::printf("resuming from %s (cut at t=%.1f s)\n",
                options.resume_path.c_str(), checkpoint.checkpoint_t_s);
    metrics = sim::resume_fleet(config, checkpoint);
  } else {
    metrics = sim::run_fleet(config);
  }
  std::printf("events %zu, requests %zu, handoffs %zu, stalls %zu, "
              "peak live %zu\n",
              metrics.events, metrics.requests, metrics.handoffs,
              metrics.stall_events, metrics.peak_live_sessions);
  // The degradation ladder in one line (DESIGN §14), plus the exact-counter
  // line the kill-and-resume ctest entries pin.
  std::printf("degraded: %.1f s in backoff, %zu escape handoffs, %zu retries, "
              "%zu abandoned, %zu sheds / %zu recoveries, %.1f J wasted\n",
              metrics.degraded_time_s, metrics.escape_handoffs,
              metrics.backoff_retries, metrics.abandoned_sessions,
              metrics.policy_sheds, metrics.policy_recoveries,
              metrics.wasted_energy_j);
  std::printf("fleet-counters: events=%zu requests=%zu handoffs=%zu "
              "stalls=%zu sessions=%zu abandoned=%zu escapes=%zu retries=%zu "
              "sheds=%zu recoveries=%zu shed_decisions=%zu\n",
              metrics.events, metrics.requests, metrics.handoffs,
              metrics.stall_events, metrics.sessions,
              metrics.abandoned_sessions, metrics.escape_handoffs,
              metrics.backoff_retries, metrics.policy_sheds,
              metrics.policy_recoveries, metrics.shed_decisions);
  if (config.policy == sim::FleetPolicy::kPlanner) {
    const auto& planner = metrics.planner;
    const auto lookups = planner.cache_hits + planner.cache_misses;
    std::printf("planner: %llu plans, cache %llu/%llu hits (%.1f%%), "
                "%llu evictions, %llu model evals\n",
                static_cast<unsigned long long>(planner.plans),
                static_cast<unsigned long long>(planner.cache_hits),
                static_cast<unsigned long long>(lookups),
                lookups > 0 ? 100.0 * static_cast<double>(planner.cache_hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<unsigned long long>(planner.cache_evictions),
                static_cast<unsigned long long>(planner.model_evals()));
  }
  std::printf("\n");

  eacs::AsciiTable table("Fleet distributions (streaming aggregates)");
  table.set_header({"metric", "mean", "p50", "p90"});
  table.set_alignment({eacs::Align::kLeft, eacs::Align::kRight,
                       eacs::Align::kRight, eacs::Align::kRight});
  table.add_row({"QoE", eacs::AsciiTable::num(metrics.qoe.mean(), 3),
                 eacs::AsciiTable::num(metrics.qoe_quantile(0.5), 3),
                 eacs::AsciiTable::num(metrics.qoe_quantile(0.9), 3)});
  table.add_row({"energy (J)", eacs::AsciiTable::num(metrics.energy_j.mean(), 1),
                 eacs::AsciiTable::num(metrics.energy_quantile(0.5), 1),
                 eacs::AsciiTable::num(metrics.energy_quantile(0.9), 1)});
  table.add_row({"rebuffer (s)", eacs::AsciiTable::num(metrics.rebuffer_s.mean(), 2),
                 eacs::AsciiTable::num(metrics.rebuffer_quantile(0.5), 2),
                 eacs::AsciiTable::num(metrics.rebuffer_quantile(0.9), 2)});
  table.add_row({"bitrate (Mbps)",
                 eacs::AsciiTable::num(metrics.bitrate_mbps.mean(), 2), "-", "-"});
  table.add_row({"startup (s)", eacs::AsciiTable::num(metrics.startup_s.mean(), 2),
                 "-", "-"});
  table.print();

  eacs::AsciiTable regions("Per-region shard view (P^2 streaming medians)");
  regions.set_header({"region", "cells", "sessions", "handoffs", "peak live",
                      "median QoE", "median J"});
  regions.set_alignment({eacs::Align::kRight, eacs::Align::kRight,
                         eacs::Align::kRight, eacs::Align::kRight,
                         eacs::Align::kRight, eacs::Align::kRight,
                         eacs::Align::kRight});
  for (const auto& region : metrics.regions) {
    regions.add_row({std::to_string(region.region),
                     std::to_string(region.num_cells),
                     std::to_string(region.sessions),
                     std::to_string(region.handoffs),
                     std::to_string(region.peak_live_sessions),
                     eacs::AsciiTable::num(region.median_qoe, 3),
                     eacs::AsciiTable::num(region.median_energy_j, 1)});
  }
  regions.print();
  return 0;
}

/// Default mode: the chosen algorithms on one Table V trace.
int run_trace(const CliOptions& options) {
  const auto& spec = media::evaluation_sessions()[options.trace_id - 1];
  std::printf("Trace %d: %.0f s video, avg vibration %.2f m/s^2\n", spec.id,
              spec.length_s, spec.avg_vibration);
  const auto session = trace::build_session(spec);

  const media::VideoManifest manifest("trace" + std::to_string(spec.id),
                                      spec.length_s, options.segment_s,
                                      media::BitrateLadder::evaluation14());
  if (!options.mpd_path.empty()) {
    std::ofstream out(options.mpd_path);
    out << media::to_mpd_xml(manifest);
    std::printf("MPD manifest written to %s\n", options.mpd_path.c_str());
  }

  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  core::ObjectiveConfig objective_config;
  objective_config.alpha = options.alpha;
  objective_config.buffer_threshold_s = options.buffer_s;
  objective_config.context_aware = options.context_aware;
  const core::Objective objective(qoe_model, power_model, objective_config);

  player::PlayerConfig player_config;
  player_config.buffer_threshold_s = options.buffer_s;
  const player::PlayerSimulator simulator(manifest, player_config);

  const std::vector<std::string> names =
      options.run_all
          ? std::vector<std::string>{"youtube", "festive", "bba", "bola", "mpc",
                                     "ours", "ours-rh", "optimal"}
          : std::vector<std::string>{options.algo};

  eacs::AsciiTable table("Results");
  table.set_header({"algorithm", "energy (J)", "extra (J)", "QoE", "bitrate (Mbps)",
                    "rebuffer (s)", "switches", "startup (s)"});
  table.set_alignment({eacs::Align::kLeft, eacs::Align::kRight, eacs::Align::kRight,
                       eacs::Align::kRight, eacs::Align::kRight, eacs::Align::kRight,
                       eacs::Align::kRight, eacs::Align::kRight});
  // Each policy run is a pure unit of work (fresh policy instance, const
  // simulator), so --jobs fans them out without changing any number.
  sim::EvaluationResult collected;
  collected.rows = eacs::util::parallel_map(
      sim::ExecutionPolicy{options.jobs}.resolved_jobs(),
      names.size(), [&](std::size_t i) {
        auto policy = make_policy(names[i], objective, manifest, session);
        const auto playback = simulator.run(*policy, session);
        return sim::compute_metrics(policy->name(), spec.id, playback, manifest,
                                    qoe_model, power_model);
      });
  for (const auto& metrics : collected.rows) {
    table.add_row({metrics.algorithm, eacs::AsciiTable::num(metrics.total_energy_j, 1),
                   eacs::AsciiTable::num(metrics.extra_energy_j, 1),
                   eacs::AsciiTable::num(metrics.mean_qoe, 2),
                   eacs::AsciiTable::num(metrics.mean_bitrate_mbps, 2),
                   eacs::AsciiTable::num(metrics.rebuffer_s, 1),
                   std::to_string(metrics.switch_count),
                   eacs::AsciiTable::num(metrics.startup_delay_s, 2)});
  }
  table.print();
  if (!options.csv_path.empty()) {
    sim::write_evaluation_csv(options.csv_path, collected);
    std::printf("Metrics CSV written to %s\n", options.csv_path.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  const CliOptions options = parse_cli(argc, argv);
  // Surface library errors (a rejected config such as a negative buffer, a
  // foreign fingerprint, a truncated sidecar) as a clean diagnostic, not a
  // terminate.
  try {
    if (options.sweep) return run_sweep(options);
    if (options.sensor_faults) return run_sensor_faults(options);
    if (options.cdn_faults) return run_cdn_faults(options);
    if (options.fleet) return run_fleet_mode(options);
    return run_trace(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sim_cli: %s\n", error.what());
    return 1;
  }
}
