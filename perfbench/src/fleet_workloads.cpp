// Fleet workloads: sim::run_fleet at 10k sessions per unit on 4 workers.
//
//   fleet_city    throughput policy on 256 cells in 8 regions (32 cells per
//                 region) at 40 arrivals/s: CellNetwork queries and the event
//                 loop carry the load, the planner does nothing.
//   fleet_planner the Eq. 11 planner on the 14-rung ladder, 60-segment
//                 sessions, 16 cells in 8 regions at 4 arrivals/s: decision-
//                 cache lookups, cold DP solves and shard construction carry
//                 the load, network queries stay cheap.
//
// A run's units take kInputs seeded inputs (fleet and network seeds) in
// turn, so one seed's figures average four networks; that narrows their
// spread over seeds, and so the bounds a change is held to.
//
// The traced run times each layer from outside: probe calls to the public
// functions run_fleet uses, at the workload's own sizes, combined with the
// deterministic counters run_fleet returns, on the first input. Probe shares
// are taken against the jobs-1 unit time the traced run measures.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "eacs/core/decision_cache.h"
#include "eacs/core/horizon.h"
#include "eacs/core/objective.h"
#include "eacs/media/bitrate_ladder.h"
#include "eacs/power/model.h"
#include "eacs/qoe/model.h"
#include "eacs/sim/cell_network.h"
#include "eacs/sim/fleet.h"
#include "eacs/util/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace eacs;

constexpr std::size_t kJobs = 4;
constexpr std::size_t kSessionsPerUnit = 10000;
constexpr std::size_t kInputs = 4;  // seeded inputs per run, one per unit in turn

// Calls per probe batch: enough to swamp the clock's overhead.
constexpr std::size_t kProbeInputs = 4096;

volatile double g_sink = 0.0;  // keeps probe results observable

enum class FleetKind { kCity, kPlanner };

sim::FleetConfig fleet_config(FleetKind kind, std::uint64_t seed, std::size_t input) {
  sim::FleetConfig config;
  config.num_sessions = kSessionsPerUnit;
  config.exec.jobs = kJobs;
  config.seed = derive_seed(seed, 1 + 2 * input);
  config.network.seed = derive_seed(seed, 2 + 2 * input);
  config.regions = 8;
  if (kind == FleetKind::kCity) {
    config.network.num_cells = 256;
    config.arrival_rate_per_s = 40.0;
    config.segments_per_session = 30;
  } else {
    config.policy = sim::FleetPolicy::kPlanner;
    const auto ladder = media::BitrateLadder::evaluation14();
    config.ladder_mbps = ladder.bitrates();
    config.segments_per_session = 60;
    config.arrival_rate_per_s = 4.0;
  }
  return config;
}

void add_stats(Digest& digest, const RunningStats& stats) {
  const RunningStatsState s = stats.state();
  digest.add(s.count).add(s.mean).add(s.m2).add(s.sum).add(s.min).add(s.max);
}

std::uint64_t fleet_digest(const sim::FleetMetrics& m) {
  Digest d;
  d.add(m.sessions).add(m.events).add(m.requests).add(m.handoffs);
  d.add(m.stall_events).add(m.peak_live_sessions).add(m.abandoned_sessions);
  const core::CostStats& p = m.planner;
  d.add(p.qoe_model_evals).add(p.power_model_evals).add(p.edge_evals);
  d.add(p.plans).add(p.cache_hits).add(p.cache_misses).add(p.cache_evictions);
  for (const RunningStats* stats :
       {&m.qoe, &m.energy_j, &m.bitrate_mbps, &m.rebuffer_s, &m.startup_s}) {
    add_stats(d, *stats);
  }
  for (const ReservoirSampler* sample :
       {&m.qoe_sample, &m.energy_sample, &m.rebuffer_sample}) {
    for (const double x : sample->sample()) d.add(x);
  }
  for (const sim::FleetRegionMetrics& r : m.regions) {
    d.add(r.sessions).add(r.events).add(r.requests).add(r.handoffs);
    d.add(r.peak_live_sessions).add(r.median_qoe).add(r.median_energy_j);
  }
  return d.value();
}

/// The unit's output checks: session conservation, one request per segment,
/// finite positive energy, QoE inside the model's MOS range.
bool fleet_outputs_ok(const sim::FleetConfig& c, const sim::FleetMetrics& m) {
  if (m.sessions + m.abandoned_sessions != c.num_sessions) return false;
  if (m.requests != m.sessions * c.segments_per_session) return false;
  if (m.energy_j.count() != m.sessions || m.sessions == 0) return false;
  if (!(std::isfinite(m.energy_j.max()) && m.energy_j.min() > 0.0)) return false;
  return m.qoe.min() >= c.qoe.mos_min && m.qoe.max() <= c.qoe.mos_max;
}

double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-6;
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(FleetKind kind, std::uint64_t seed) : kind_(kind) {
    for (std::size_t k = 0; k < kInputs; ++k) {
      configs_.push_back(fleet_config(kind, seed, k));
    }
  }

  std::string describe() const override {
    const sim::FleetConfig& c = configs_.front();
    char text[256];
    std::snprintf(text, sizeof text,
                  "run_fleet %s policy, %zu sessions, %zu cells / %zu regions, "
                  "%zu segments, %.0f arrivals/s, jobs %zu, %zu seeded inputs in turn",
                  kind_ == FleetKind::kCity ? "throughput" : "planner",
                  c.num_sessions, c.network.num_cells, c.regions,
                  c.segments_per_session, c.arrival_rate_per_s, c.exec.jobs,
                  configs_.size());
    return text;
  }

  bool setup(SpanLog* log) override {
    bool ok = true;
    for (const sim::FleetConfig& config : configs_) {
      ScopedSpan span(log, "sim.fleet.verification_unit", -1);
      verified_.push_back(sim::run_fleet(config));
      digests_.push_back(fleet_digest(verified_.back()));
      ok = fleet_outputs_ok(config, verified_.back()) && ok;
    }
    return ok;
  }

  UnitSample unit(std::size_t index) override {
    const std::size_t k = index % configs_.size();
    const std::int64_t t0 = now_ns();
    const sim::FleetMetrics m = sim::run_fleet(configs_[k]);
    UnitSample sample;
    sample.ms = ms_since(t0);
    sample.sessions = static_cast<double>(m.sessions);
    sample.events = static_cast<double>(m.events);
    sample.ok = fleet_outputs_ok(configs_[k], m) && fleet_digest(m) == digests_[k];
    return sample;
  }

  /// Session-weighted means over the inputs; the digest covers every input.
  SimulatedMeans simulated() const override {
    double sessions = 0.0, qoe = 0.0, energy = 0.0, stall = 0.0;
    Digest digest;
    for (std::size_t k = 0; k < verified_.size(); ++k) {
      const sim::FleetMetrics& m = verified_[k];
      sessions += static_cast<double>(m.qoe.count());
      qoe += m.qoe.sum();
      energy += m.energy_j.sum();
      stall += m.startup_s.sum() + m.rebuffer_s.sum();
      digest.add(digests_[k]);
    }
    return {qoe / sessions, energy / sessions, stall / sessions, digest.value()};
  }

  TraceResult trace(double seconds, SpanLog& log) override;

 private:
  /// One checked unit of the first input at `jobs` workers, inside a span
  /// when `log` is set; returns its ms.
  double checked_unit(std::size_t jobs, std::int64_t unit, SpanLog* log,
                      TraceResult& out) {
    sim::FleetConfig config = configs_.front();
    config.exec.jobs = jobs;
    const std::int64_t t0 = now_ns();
    sim::FleetMetrics m;
    {
      ScopedSpan span(log, jobs == 1 ? "sim.fleet.unit_j1" : "sim.fleet.unit_j4",
                      unit);
      m = sim::run_fleet(config);
    }
    const double ms = ms_since(t0);
    ++out.attempted;
    if (!(fleet_outputs_ok(config, m) && fleet_digest(m) == digests_.front())) {
      ++out.failed;
    }
    return ms;
  }

  FleetKind kind_;
  std::vector<sim::FleetConfig> configs_;
  std::vector<sim::FleetMetrics> verified_;
  std::vector<std::uint64_t> digests_;
};

/// Probe calls to the public functions run_fleet's loop uses, on inputs at
/// the workload's sizes: its cells per region, time range, ladder, planner
/// window and cache configuration.
class FleetProbes {
 public:
  explicit FleetProbes(const sim::FleetConfig& config)
      : config_(config),
        network_(config.network),
        per_region_(config.network.num_cells / config.regions),
        qoe_model_(config.qoe),
        power_model_(config.power),
        cache_(config.planner_cache),
        objective_(qoe::QoeModel(config.qoe), power::PowerModel(config.power),
                   core::ObjectiveConfig{.alpha = config.planner_alpha,
                                         .buffer_threshold_s = config.buffer_threshold_s,
                                         .context_aware = true}) {
    const double horizon_s =
        static_cast<double>(config.num_sessions) / config.arrival_rate_per_s +
        static_cast<double>(config.segments_per_session) * config.segment_duration_s;
    const auto& ladder = config.ladder_mbps;
    // The planner's window, as RegionSim builds it.
    window_.resize(config.planner_horizon);
    for (std::size_t k = 0; k < window_.size(); ++k) {
      window_[k].index = k;
      window_[k].duration_s = config.segment_duration_s;
      for (const double mbps : ladder) {
        window_[k].size_megabits.push_back(mbps * config.segment_duration_s);
      }
    }
    const std::uint64_t ladder_id = core::hash_task_ladder(window_);
    for (std::size_t k = 0; k < kProbeInputs; ++k) {
      const std::uint64_t s = derive_seed(config.seed, 1000 + k);
      const auto session = static_cast<int>(
          seeded_uniform(s, 0.0, static_cast<double>(config.num_sessions)));
      const std::size_t first =
          (static_cast<std::size_t>(session) % config.regions) * per_region_;
      queries_.push_back({session, seeded_uniform(s + 1, 0.0, horizon_s), first,
                          first + k % per_region_});

      const double u = seeded_uniform(s + 2, 0.0, 1.0);
      const double vibration = 3.0 * u * u;  // the fleet's per-session draw
      const double bitrate = ladder[k % ladder.size()];
      const double rebuffer = k % 16 == 0 ? seeded_uniform(s + 3, 0.0, 2.0) : 0.0;
      segments_.push_back(
          {bitrate, vibration, ladder[(k + 1) % ladder.size()], rebuffer});
      power::TaskEnergyInput task;
      task.size_mb = bitrate * config.segment_duration_s / 8.0;
      task.bitrate_mbps = bitrate;
      task.signal_dbm = seeded_uniform(s + 4, -110.0, -65.0);
      task.play_s = seeded_uniform(s + 5, 0.0, config.segment_duration_s);
      task.rebuffer_s = rebuffer;
      tasks_.push_back(task);

      core::DecisionSnapshot snap;
      snap.buffer_s = seeded_uniform(s + 6, 0.0, config.buffer_threshold_s + 4.0);
      snap.bandwidth_mbps = 0.3 * std::exp2(seeded_uniform(s + 7, 0.0, 7.0));
      snap.vibration = vibration;
      snap.signal_dbm = task.signal_dbm;
      snap.segments_remaining = config.planner_horizon;
      snap.prev_level = static_cast<std::size_t>(
          seeded_uniform(s + 8, 0.0, static_cast<double>(ladder.size())));
      snap.ladder_id = ladder_id;
      snap.alpha = config.planner_alpha;
      snapshots_.push_back(snap);
    }
    for (const auto& snap : snapshots_) cache_.insert(cache_.key_for(snap), 1);
    for (std::size_t k = 0; k < kPlans; ++k) {
      reps_.push_back(cache_.canonicalize(snapshots_[k]));
    }
    per_region_sessions_ = config.num_sessions / config.regions;
    for (std::size_t k = 0; k < per_region_sessions_; ++k) {
      fold_values_.push_back(
          seeded_uniform(derive_seed(config.seed, 20000 + k), 1.0, 5.0));
    }
  }

  /// One round of every probe: ns per call, keyed by probe name.
  std::map<std::string, double> measure(SpanLog& log, bool planner) {
    std::map<std::string, double> ns;
    ns["serving_cell"] = probe_ns_per_call(
        log, "sim.cell_network.serving_cell", kBatches, kProbeInputs, [&] {
          for (const Query& q : queries_) {
            sink_ += static_cast<double>(network_.serving_cell(
                q.session, q.current, q.t_s, config_.handoff_hysteresis_db,
                q.first_cell, per_region_));
          }
        });
    ns["signal_dbm"] = probe_ns_per_call(
        log, "sim.cell_network.signal_dbm", kBatches, kProbeInputs, [&] {
          for (const Query& q : queries_) {
            sink_ += network_.signal_dbm(q.session, q.current, q.t_s);
          }
        });
    ns["capacity"] = probe_ns_per_call(
        log, "sim.cell_network.capacity_mbps", kBatches, kProbeInputs, [&] {
          for (const Query& q : queries_) {
            sink_ += network_.capacity_mbps(q.current, q.t_s);
          }
        });
    ns["segment_qoe"] = probe_ns_per_call(
        log, "qoe.model.segment_qoe", kBatches, kProbeInputs, [&] {
          for (const auto& seg : segments_) sink_ += qoe_model_.segment_qoe(seg);
        });
    ns["task_energy"] = probe_ns_per_call(
        log, "power.model.task_energy", kBatches, kProbeInputs, [&] {
          for (const auto& task : tasks_) sink_ += power_model_.task_energy(task);
        });
    ns["fold"] = probe_ns_per_call(
        log, "util.stats.fold", 1, config_.regions * per_region_sessions_,
        [&] { fold_all_regions(); });
    if (planner) {
      ns["lookup"] = probe_ns_per_call(
          log, "core.decision_cache.lookup", kBatches, kProbeInputs, [&] {
            for (const auto& snap : snapshots_) {
              sink_ += static_cast<double>(
                  cache_.find(cache_.key_for(snap)).value_or(0));
            }
          });
      // One shard per region, all alive at once.
      ns["construct"] = probe_ns_per_call(
          log, "core.decision_cache.construct", 1, 1, [&] {
            std::vector<core::DecisionCache> shards;
            shards.reserve(config_.regions);
            for (std::size_t r = 0; r < config_.regions; ++r) {
              shards.emplace_back(config_.planner_cache);
            }
            sink_ += static_cast<double>(shards.back().entries());
          });
      ns["plan"] = probe_ns_per_call(
          log, "core.horizon.plan_first_action", kBatches, kPlans, [&] {
            for (const auto& c : reps_) {
              for (auto& task : window_) {
                task.signal_dbm = c.signal_dbm;
                task.vibration = c.vibration;
                task.bandwidth_mbps = c.bandwidth_mbps;
              }
              sink_ += static_cast<double>(core::plan_horizon_first_action(
                  objective_, window_, c.buffer_s, c.prev_level));
            }
          });
    }
    g_sink = sink_;
    return ns;
  }

 private:
  struct Query {
    int session;
    double t_s;
    std::size_t first_cell;
    std::size_t current;
  };
  static constexpr std::size_t kBatches = 3;
  static constexpr std::size_t kPlans = 256;

  /// One session's fold as a region shard does it at session end: five
  /// RunningStats, three reservoirs and two P^2 markers, on fresh per-region
  /// aggregators.
  void fold_all_regions() {
    for (std::size_t r = 0; r < config_.regions; ++r) {
      RunningStats a, b, c, d, e;
      ReservoirSampler ra(config_.reservoir_capacity, r * 3 + 1);
      ReservoirSampler rb(config_.reservoir_capacity, r * 3 + 2);
      ReservoirSampler rc(config_.reservoir_capacity, r * 3 + 3);
      P2Quantile qa(0.5), qb(0.5);
      for (const double x : fold_values_) {
        a.add(x);
        b.add(x * 100.0);
        c.add(x * 0.5);
        d.add(x * 0.1);
        e.add(x * 0.7);
        ra.add(x);
        rb.add(x * 100.0);
        rc.add(x * 0.1);
        qa.add(x);
        qb.add(x * 100.0);
      }
      sink_ += a.mean() + b.sum() + c.sum() + d.sum() + e.sum() +
               ra.quantile(0.5) + rb.quantile(0.5) + rc.quantile(0.5) +
               qa.value() + qb.value();
    }
  }

  const sim::FleetConfig& config_;
  sim::CellNetwork network_;
  std::size_t per_region_;
  qoe::QoeModel qoe_model_;
  power::PowerModel power_model_;
  core::DecisionCache cache_;
  core::Objective objective_;
  std::vector<core::TaskEnvironment> window_;
  std::vector<Query> queries_;
  std::vector<qoe::SegmentContext> segments_;
  std::vector<power::TaskEnergyInput> tasks_;
  std::vector<core::DecisionSnapshot> snapshots_;
  std::vector<core::CanonicalDecision> reps_;
  std::size_t per_region_sessions_ = 0;
  std::vector<double> fold_values_;
  double sink_ = 0.0;
};

TraceResult FleetWorkload::trace(double seconds, SpanLog& log) {
  TraceResult out;
  const std::int64_t start = now_ns();
  const sim::FleetConfig& config = configs_.front();
  const bool planner = config.policy == sim::FleetPolicy::kPlanner;
  FleetProbes probes(config);

  // Calls per unit, from the verification unit's deterministic counters:
  // one best-cell scan per arrival (priced as serving_cell) and, per
  // request, one serving_cell, one capacity, one signal query (the energy
  // price at completion), one segment QoE and one task energy; per planner
  // consultation one more signal query (the decision snapshot) and one
  // cache lookup; one cold DP solve per plan; one fold per session; one
  // shard per region (the construct probe builds them all).
  const sim::FleetMetrics& m = verified_.front();
  const core::CostStats& p = m.planner;
  const double sessions = static_cast<double>(m.sessions);
  const double requests = static_cast<double>(m.requests);
  const double consults = static_cast<double>(p.cache_hits + p.cache_misses);
  const std::map<std::string, std::pair<const char*, double>> layers = {
      {"sim.cell_network.share", {nullptr, 0.0}},
      {"core.decision_cache.lookup_share", {"lookup", consults}},
      {"core.decision_cache.construct_share", {"construct", 1.0}},
      {"core.horizon.share", {"plan", static_cast<double>(p.plans)}},
      {"qoe.model.segment_qoe_share", {"segment_qoe", requests}},
      {"power.model.task_energy_share", {"task_energy", requests}},
      {"util.stats.fold_share", {"fold", sessions}},
  };

  // Interleaved rounds, so drift of the machine hits a unit and the probes
  // priced against it alike: jobs 1 untraced (the share base), one round of
  // probes, jobs 1 inside a span (tracing overhead), jobs 4 (the timed
  // runs' setting). Every unit is checked against the verification digest,
  // so jobs 1 must reproduce jobs 4 bit for bit. Shares are per-round
  // ratios; every reported value is a median over rounds.
  std::vector<double> j1, j1_traced, j4;
  std::map<std::string, std::vector<double>> ns, shares;
  for (std::int64_t round = 0; round < 30; ++round) {
    if (round >= 3 && static_cast<double>(now_ns() - start) * 1e-9 > 0.6 * seconds) {
      break;
    }
    j1.push_back(checked_unit(1, round, nullptr, out));
    const double unit_ns = j1.back() * 1e6;
    const std::map<std::string, double> cost = probes.measure(log, planner);
    j1_traced.push_back(checked_unit(1, round, &log, out));
    j4.push_back(checked_unit(kJobs, round, &log, out));

    for (const auto& [name, value] : cost) ns[name].push_back(value);
    const double network_ns =
        static_cast<double>(config.num_sessions) * cost.at("serving_cell") +
        requests * (cost.at("serving_cell") + cost.at("capacity") +
                    cost.at("signal_dbm")) +
        consults * cost.at("signal_dbm");
    double probed = network_ns / unit_ns;
    shares["sim.cell_network.share"].push_back(probed);
    for (const auto& [share, layer] : layers) {
      const auto it = layer.first ? cost.find(layer.first) : cost.end();
      if (it == cost.end()) continue;
      const double value = layer.second * it->second / unit_ns;
      shares[share].push_back(value);
      probed += value;
    }
    shares["sim.fleet.loop_share"].push_back(1.0 - probed);
  }

  auto& v = out.values;
  v["bench.unit_ms_j1"] = median(j1);
  v["util.thread_pool.speedup_j4"] = median(j1) / median(j4);
  v["bench.trace_overhead"] = median(j1_traced) / median(j1);
  v["sim.fleet.events_per_session"] = static_cast<double>(m.events) / sessions;
  v["sim.fleet.useful_event_ratio"] =
      (static_cast<double>(config.num_sessions) + 2.0 * requests) /
      static_cast<double>(m.events);
  v["sim.fleet.peak_live_sessions"] = static_cast<double>(m.peak_live_sessions);
  double max_events = 0.0;
  for (const auto& r : m.regions) {
    max_events = std::max(max_events, static_cast<double>(r.events));
  }
  v["sim.fleet.region_event_imbalance"] =
      max_events * static_cast<double>(m.regions.size()) /
      static_cast<double>(m.events);
  v["core.decision_cache.hit_ratio"] =
      consults > 0.0 ? static_cast<double>(p.cache_hits) / consults : 0.0;
  v["core.decision_cache.consults_per_session"] = consults / sessions;
  v["core.decision_cache.evictions"] = static_cast<double>(p.cache_evictions);
  v["core.horizon.plans_per_session"] = static_cast<double>(p.plans) / sessions;
  v["core.horizon.model_evals_per_session"] =
      static_cast<double>(p.model_evals()) / sessions;

  const std::map<std::string, const char*> per_call = {
      {"serving_cell", "sim.cell_network.serving_cell_ns"},
      {"signal_dbm", "sim.cell_network.signal_dbm_ns"},
      {"capacity", "sim.cell_network.capacity_ns"},
      {"segment_qoe", "qoe.model.segment_qoe_ns"},
      {"task_energy", "power.model.task_energy_ns"},
      {"fold", "util.stats.fold_ns"},
      {"lookup", "core.decision_cache.lookup_ns"},
  };
  for (const auto& [probe, metric] : per_call) {
    if (ns.count(probe)) v[metric] = median(ns[probe]);
  }
  if (planner) {
    v["core.decision_cache.construct_ms"] = median(ns["construct"]) * 1e-6;
    v["core.horizon.plan_us"] = median(ns["plan"]) * 1e-3;
  }
  for (const auto& [share, values] : shares) v[share] = median(values);
  out.notes.push_back("fleet traced run: " + std::to_string(j1.size()) +
                      " interleaved rounds of (jobs 1, probes, jobs 1 traced, "
                      "jobs 4) on the first input");
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_fleet_city(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(FleetKind::kCity, seed);
}

std::unique_ptr<Workload> make_fleet_planner(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(FleetKind::kPlanner, seed);
}

}  // namespace perfbench
