// Rich-engine workloads. A unit is a batch of independent single-threaded
// engine runs spread over 4 workers by the library's own deterministic
// fan-out (results are bit-identical at any worker count); single-threaded
// timings drift too much on a shared 4-vCPU machine to compare runs.
//
//   rich_evaluation  sim::Evaluation::run over 48 seeded sessions with all
//                    five algorithms (YouTube, FESTIVE, BBA, Ours, Optimal):
//                    the paper's Section V path, the analytic SessionEngine
//                    loop, OnlineBitrateSelector and the OptimalPlanner
//                    DAG-DP. Session specs are stratified over Table V's
//                    ranges, so every seed covers the same spread.
//   rich_cells       SessionEngine::run on 24 CellularLinkModel scenarios
//                    whose cell capacities are seeded session traces, with
//                    FESTIVE clients on staggered joins following seeded
//                    handoff routes: the stepped path (per-step processor
//                    sharing, the (step, cell) heap, handoffs at step edges).
//                    Scenarios come in three fixed sizes (4/6/8 cells with
//                    16/24/32 clients).
//
// The traced runs are serial (jobs 1) and time layers through a timing
// AbrPolicy decorator, a counting SessionObserver and spans around the public
// calls. For rich_evaluation the traced unit replays Evaluation::run through
// the calls it makes (build_task_environments, OptimalPlanner::plan,
// PlayerSimulator::run per algorithm, compute_metrics) and must match its
// rows bit for bit.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "eacs/abr/bba.h"
#include "eacs/abr/bola.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/online.h"
#include "eacs/core/optimal.h"
#include "eacs/media/bitrate_ladder.h"
#include "eacs/player/session_engine.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/metrics.h"
#include "eacs/trace/session.h"
#include "eacs/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace eacs;

// Table V's ranges (lengths 198-612 s, vibration 2.46-6.83 m/s^2).
constexpr double kMinLengthS = 198.0;
constexpr double kMaxLengthS = 612.0;
constexpr double kMinVibration = 2.5;
constexpr double kMaxVibration = 6.8;
constexpr std::size_t kEvaluationSessions = 48;
constexpr std::size_t kJobs = 4;  // workers per timed unit and per set-up pass

constexpr std::size_t kAlgorithms = 5;  // YouTube, FESTIVE, BBA, Ours, Optimal
constexpr std::array<const char*, kAlgorithms> kChooseLevelMetric = {
    "abr.youtube.choose_level_ns", "abr.festive.choose_level_ns",
    "abr.bba.choose_level_ns", "core.online.choose_level_ns",
    "core.optimal.choose_level_ns"};

constexpr std::size_t kEventTypes =
    static_cast<std::size_t>(player::SessionEventType::kSessionEnd) + 1;

double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-6;
}

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> seeded_permutation(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        seeded_uniform(derive_seed(seed, i), 0.0, static_cast<double>(i)));
    std::swap(order[i - 1], order[std::min(j, i - 1)]);
  }
  return order;
}

/// Session specs over Table V's ranges. Lengths are the midpoints of n equal
/// slices of [198, 612] s, in seeded order; vibration is a seeded draw from
/// a permuted slice of [2.5, 6.8] m/s^2; trace seeds are seeded. Every seed
/// gets different sessions with the same total length, which keeps the work
/// per run, and so the timings, comparable across seeds.
std::vector<media::SessionSpec> stratified_specs(std::uint64_t seed, std::size_t n,
                                                 std::uint64_t lane) {
  const std::vector<std::size_t> length_slice =
      seeded_permutation(derive_seed(seed, lane), n);
  const std::vector<std::size_t> vib_slice =
      seeded_permutation(derive_seed(seed, lane + 1), n);
  const double slice = 1.0 / static_cast<double>(n);
  std::vector<media::SessionSpec> specs(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t s = derive_seed(seed, lane + 2 + k);
    media::SessionSpec& spec = specs[k];
    spec.id = static_cast<int>(k + 1);
    spec.length_s = kMinLengthS + (kMaxLengthS - kMinLengthS) * slice *
                                      (static_cast<double>(length_slice[k]) + 0.5);
    spec.avg_vibration =
        kMinVibration + (kMaxVibration - kMinVibration) * slice *
                            (static_cast<double>(vib_slice[k]) +
                             seeded_uniform(s, 0.0, 1.0));
    spec.on_vehicle = spec.avg_vibration >= 4.0;
    spec.data_size_mb = 0.3 * spec.length_s;
    spec.seed = derive_seed(s, 7);
  }
  return specs;
}

/// Builds the sessions on kJobs workers (trace::build_session is pure in its
/// spec) and records each build as a "trace.build_session" span.
std::vector<trace::SessionTraces> build_sessions(
    const std::vector<media::SessionSpec>& specs,
    const trace::SessionBuildOptions& options, SpanLog* log) {
  struct Built {
    trace::SessionTraces session;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<Built> built =
      util::parallel_map(kJobs, specs.size(), [&](std::size_t k) {
        Built b;
        b.start_ns = now_ns();
        b.session = trace::build_session(specs[k], options);
        b.end_ns = now_ns();
        return b;
      });
  std::vector<trace::SessionTraces> sessions;
  for (Built& b : built) {
    if (log != nullptr) {
      log->record("trace.build_session", b.start_ns, b.end_ns, log->innermost(), -1);
    }
    sessions.push_back(std::move(b.session));
  }
  return sessions;
}

/// Accumulated choose_level time of one algorithm.
struct PolicyTime {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Timing decorator: forwards every AbrPolicy call to the wrapped policy and
/// adds the wall time of choose_level to `time`.
class TimedPolicy final : public player::AbrPolicy {
 public:
  TimedPolicy(player::AbrPolicy& inner, PolicyTime& time)
      : inner_(&inner), time_(&time) {}

  std::string name() const override { return inner_->name(); }
  std::size_t choose_level(const player::AbrContext& context) override {
    const std::int64_t t0 = now_ns();
    const std::size_t level = inner_->choose_level(context);
    time_->ns += now_ns() - t0;
    ++time_->calls;
    return level;
  }
  void on_download_failure(const player::DownloadFailure& failure) override {
    inner_->on_download_failure(failure);
  }
  void reset() override { inner_->reset(); }

 private:
  player::AbrPolicy* inner_;
  PolicyTime* time_;
};

/// Counts engine events by type.
class EventCounter final : public player::SessionObserver {
 public:
  void on_event(const player::SessionEvent& event) override {
    ++counts_[static_cast<std::size_t>(event.type)];
  }
  std::uint64_t count(player::SessionEventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts_) sum += c;
    return sum;
  }

 private:
  std::array<std::uint64_t, kEventTypes> counts_{};
};

/// Observer that does nothing: the cost of the hook itself.
class NoopObserver final : public player::SessionObserver {
 public:
  void on_event(const player::SessionEvent&) override {}
};

void add_event_metrics(const EventCounter& counter, double sessions,
                       std::map<std::string, double>& v) {
  using T = player::SessionEventType;
  const auto per = [&](T type) {
    return static_cast<double>(counter.count(type)) / sessions;
  };
  v["player.events_per_session.requests"] = per(T::kRequestIssued);
  v["player.events_per_session.drains"] = per(T::kBufferDrain);
  v["player.events_per_session.stalls"] = per(T::kStall);
  v["player.events_per_session.progress"] = per(T::kDownloadProgress);
  v["player.events_per_session.handoffs"] = per(T::kCellHandoff);
  v["player.events_per_session.all"] = static_cast<double>(counter.total()) / sessions;
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

// --- rich_evaluation -------------------------------------------------------

std::uint64_t rows_digest(const std::vector<sim::SessionMetrics>& rows) {
  Digest d;
  for (const sim::SessionMetrics& r : rows) {
    d.add(r.algorithm).add(r.session_id);
    d.add(r.total_energy_j).add(r.base_energy_j).add(r.extra_energy_j);
    d.add(r.mean_qoe).add(r.mean_bitrate_mbps).add(r.downloaded_mb);
    d.add(r.rebuffer_s).add(r.rebuffer_events).add(r.switch_count);
    d.add(r.startup_delay_s).add(r.wasted_energy_j).add(r.wasted_mb);
    d.add(r.retries).add(r.abandoned_segments);
  }
  return d.value();
}

/// Instrumentation for one replay; null members leave it untraced.
struct ReplayProbes {
  SpanLog* log = nullptr;
  std::int64_t unit = -1;
  player::SessionObserver* observer = nullptr;
  std::array<PolicyTime, kAlgorithms>* policy_times = nullptr;
};

/// Evaluation::run's per-session unit, call for call, with spans around each
/// layer call. Must produce Evaluation::run's rows bit for bit.
std::vector<sim::SessionMetrics> replay_evaluation(const sim::Evaluation& evaluation,
                                                   const trace::SessionTraces& session,
                                                   const ReplayProbes& probes) {
  const sim::EvaluationConfig& config = evaluation.config();
  const qoe::QoeModel qoe_model(config.qoe);
  const power::PowerModel power_model(config.power);
  core::ObjectiveConfig objective_config;
  objective_config.alpha = config.alpha;
  objective_config.buffer_threshold_s = config.player.buffer_threshold_s;
  objective_config.context_aware = config.context_aware;
  const core::Objective objective(qoe_model, power_model, objective_config);

  const media::VideoManifest manifest = evaluation.manifest_for(session.spec);
  const player::PlayerSimulator simulator(manifest, config.player);
  abr::FixedBitrate youtube;
  abr::Festive festive;
  abr::Bba bba(5.0, config.player.buffer_threshold_s);
  core::OnlineBitrateSelector ours(
      objective,
      {.startup_level = config.online_startup_level,
       .cache = config.online_cache
                    ? std::make_shared<core::DecisionCache>(*config.online_cache)
                    : nullptr});
  std::optional<core::PlannedPolicy> optimal;
  {
    ScopedSpan span(probes.log, "core.optimal.plan", probes.unit);
    const auto tasks = core::build_task_environments(manifest, session);
    const core::OptimalPlanner planner(objective);
    optimal.emplace(planner.plan(tasks));
  }
  std::vector<player::AbrPolicy*> policies = {&youtube, &festive, &bba, &ours,
                                              &*optimal};
  abr::Bola bola(5.0, config.player.buffer_threshold_s);
  if (config.include_bola) policies.push_back(&bola);

  std::vector<sim::SessionMetrics> rows;
  rows.reserve(policies.size());
  for (std::size_t k = 0; k < policies.size(); ++k) {
    std::optional<TimedPolicy> timed;
    if (probes.policy_times != nullptr && k < kAlgorithms) {
      timed.emplace(*policies[k], (*probes.policy_times)[k]);
    }
    player::AbrPolicy& policy = timed ? *timed : *policies[k];
    player::PlaybackResult playback;
    {
      ScopedSpan span(probes.log, "player.run", probes.unit);
      playback = simulator.run(policy, session, probes.observer);
    }
    ScopedSpan span(probes.log, "sim.metrics.compute", probes.unit);
    rows.push_back(sim::compute_metrics(policy.name(), session.spec.id, playback,
                                        manifest, qoe_model, power_model));
  }
  return rows;
}

/// Evaluation::run over every session, replayed call for call, one session
/// after another (rows in Evaluation::run's order).
std::vector<sim::SessionMetrics> replay_all(const sim::Evaluation& evaluation,
                                            const std::vector<trace::SessionTraces>& sessions,
                                            const ReplayProbes& probes) {
  std::vector<sim::SessionMetrics> rows;
  for (const trace::SessionTraces& session : sessions) {
    const auto part = replay_evaluation(evaluation, session, probes);
    rows.insert(rows.end(), part.begin(), part.end());
  }
  return rows;
}

sim::EvaluationConfig evaluation_config(std::size_t jobs) {
  sim::EvaluationConfig config;
  config.exec.jobs = jobs;
  return config;
}

class RichEvaluationWorkload final : public Workload {
 public:
  explicit RichEvaluationWorkload(std::uint64_t seed)
      : seed_(seed),
        evaluation_(evaluation_config(kJobs)),
        serial_(evaluation_config(1)) {}

  std::string describe() const override {
    return "Evaluation::run over " + std::to_string(kEvaluationSessions) +
           " seeded Table V-range sessions x 5 algorithms per unit, jobs " +
           std::to_string(kJobs);
  }

  bool setup(SpanLog* log) override {
    // Longest sessions first, so the workers' dynamic fan-out finishes
    // together.
    std::vector<media::SessionSpec> specs =
        stratified_specs(seed_, kEvaluationSessions, 100);
    std::sort(specs.begin(), specs.end(), [](const auto& a, const auto& b) {
      return a.length_s > b.length_s;
    });
    sessions_ = build_sessions(specs, evaluation_.config().session_options, log);
    // The warm-up unit is the verification unit. A replay with one counting
    // observer per session certifies the traced path against it and counts
    // the unit's engine events. It runs on the unit's workers: set-up work
    // on one thread drifts like a jobs-1 unit.
    const sim::EvaluationResult result = evaluation_.run(sessions_);
    std::vector<EventCounter> counters(sessions_.size());
    const auto parts = util::parallel_map(kJobs, sessions_.size(), [&](std::size_t k) {
      return replay_evaluation(serial_, sessions_[k], {.observer = &counters[k]});
    });
    std::vector<sim::SessionMetrics> replayed;
    events_ = 0.0;
    for (std::size_t k = 0; k < parts.size(); ++k) {
      replayed.insert(replayed.end(), parts[k].begin(), parts[k].end());
      events_ += static_cast<double>(counters[k].total());
    }
    digest_ = rows_digest(result.rows);
    double qoe = 0.0, energy = 0.0, stall = 0.0;
    for (const sim::SessionMetrics& r : result.rows) {
      qoe += r.mean_qoe;
      energy += r.total_energy_j;
      stall += r.startup_delay_s + r.rebuffer_s;
    }
    const auto n = static_cast<double>(result.rows.size());
    means_ = {qoe / n, energy / n, stall / n, digest_};
    return rows_ok(result.rows) && rows_digest(replayed) == digest_;
  }

  UnitSample unit(std::size_t) override {
    const std::int64_t t0 = now_ns();
    const sim::EvaluationResult result = evaluation_.run(sessions_);
    UnitSample sample;
    sample.ms = ms_since(t0);
    sample.sessions = static_cast<double>(result.rows.size());
    sample.events = events_;
    sample.ok = rows_ok(result.rows) && rows_digest(result.rows) == digest_;
    return sample;
  }

  SimulatedMeans simulated() const override { return means_; }

  TraceResult trace(double seconds, SpanLog& log) override {
    TraceResult out;
    const std::int64_t start = now_ns();
    std::vector<double> plain_ms, j4_ms, traced_ms, observer_ratio;
    std::array<PolicyTime, kAlgorithms> policy_times{};
    EventCounter counter;
    double playbacks = 0.0;
    std::size_t replays_matched = 0;
    const auto check = [&](const std::vector<sim::SessionMetrics>& rows) {
      ++out.attempted;
      const bool ok = rows_ok(rows) && rows_digest(rows) == digest_;
      if (!ok) ++out.failed;
      return ok;
    };
    for (std::int64_t u = 0;; ++u) {
      const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
      if (u >= 3 && elapsed > 0.8 * seconds) break;

      // Each timing stops before its outputs are checked.
      std::int64_t t0 = now_ns();
      std::vector<sim::SessionMetrics> rows = serial_.run(sessions_).rows;
      plain_ms.push_back(ms_since(t0));
      check(rows);

      t0 = now_ns();
      rows = evaluation_.run(sessions_).rows;
      j4_ms.push_back(ms_since(t0));
      check(rows);

      t0 = now_ns();
      std::vector<sim::SessionMetrics> traced;
      {
        ScopedSpan span(&log, "sim.evaluation.unit", u);
        traced = replay_all(serial_, sessions_, {&log, u, &counter, &policy_times});
      }
      traced_ms.push_back(ms_since(t0));
      playbacks += static_cast<double>(traced.size());
      if (check(traced)) ++replays_matched;

      t0 = now_ns();
      rows = replay_all(serial_, sessions_, {});
      const double bare_ms = ms_since(t0);
      check(rows);
      NoopObserver noop;
      t0 = now_ns();
      rows = replay_all(serial_, sessions_, {.observer = &noop});
      observer_ratio.push_back(ms_since(t0) / bare_ms);
      check(rows);
    }

    // Shares are of the traced unit span: the layers' spans and the policy
    // decorator's time all sit inside it.
    auto& v = out.values;
    const double unit_ns = sum(log.durations("sim.evaluation.unit"));
    double policy_ns = 0.0;
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      const PolicyTime& t = policy_times[a];
      policy_ns += static_cast<double>(t.ns);
      v[kChooseLevelMetric[a]] =
          t.calls > 0 ? static_cast<double>(t.ns) / static_cast<double>(t.calls) : 0.0;
    }
    const std::vector<double> plan = log.durations("core.optimal.plan");
    v["bench.unit_ms_j1"] = median(plain_ms);
    v["util.thread_pool.speedup_j4"] = median(plain_ms) / median(j4_ms);
    v["bench.trace_overhead"] = median(traced_ms) / median(plain_ms);
    v["core.optimal.plan_ms"] = median(plan) * 1e-6;
    v["core.optimal.share"] = sum(plan) / unit_ns;
    v["player.policy_share"] = policy_ns / unit_ns;
    v["player.engine_self_share"] =
        (sum(log.durations("player.run")) - policy_ns) / unit_ns;
    v["player.observer_overhead"] = median(observer_ratio);
    v["sim.metrics.compute_us"] = median(log.durations("sim.metrics.compute")) * 1e-3;
    v["trace.build_session_ms"] = median(log.durations("trace.build_session")) * 1e-6;
    add_event_metrics(counter, playbacks, v);
    out.notes.push_back(
        "rich_evaluation traced run: " + std::to_string(plain_ms.size()) +
        " iterations of (Evaluation::run jobs 1, Evaluation::run jobs 4, traced "
        "replay, bare replay, replay with a no-op observer)");
    out.notes.push_back("traced replay matched Evaluation::run bit for bit in " +
                        std::to_string(replays_matched) + " of " +
                        std::to_string(plain_ms.size()) + " units");
    return out;
  }

 private:
  bool rows_ok(const std::vector<sim::SessionMetrics>& rows) const {
    if (rows.size() != kAlgorithms * sessions_.size()) return false;
    const qoe::QoeModelParams& mos = evaluation_.config().qoe;
    for (const sim::SessionMetrics& r : rows) {
      if (!(r.mean_qoe >= mos.mos_min && r.mean_qoe <= mos.mos_max)) return false;
      if (!(std::isfinite(r.total_energy_j) && r.total_energy_j > 0.0)) return false;
      if (!(std::isfinite(r.rebuffer_s) && r.rebuffer_s >= 0.0)) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  sim::Evaluation evaluation_;  // the timed configuration, jobs 4
  sim::Evaluation serial_;      // jobs 1, for the replays and the traced run
  std::vector<trace::SessionTraces> sessions_;
  std::uint64_t digest_ = 0;
  double events_ = 0.0;
  SimulatedMeans means_;
};

// --- rich_cells ------------------------------------------------------------

constexpr std::array<std::size_t, 3> kScenarioCells = {4, 6, 8};
constexpr std::size_t kClientsPerCell = 4;
// Seeded capacity traces per seed; each scenario draws its cells from them,
// so one run spans 32 traces.
constexpr std::size_t kCellPool = 32;
constexpr std::size_t kCellScenarios = 24;  // eight of each size per unit
constexpr double kVideoLengthS = 120.0;
constexpr double kSegmentS = 2.0;

using Playbacks = std::vector<std::vector<player::PlaybackResult>>;
using Observers = std::vector<player::SessionObserver*>;

std::uint64_t playback_digest(const Playbacks& scenarios) {
  Digest d;
  for (const auto& results : scenarios) {
    for (const player::PlaybackResult& r : results) {
      d.add(r.tasks.size());
      for (const player::TaskRecord& t : r.tasks) {
        d.add(t.level).add(t.download_start_s).add(t.download_end_s);
        d.add(t.throughput_mbps).add(t.rebuffer_s).add(t.signal_dbm);
        d.add(t.vibration).add(t.buffer_before_s);
      }
      d.add(r.startup_delay_s).add(r.total_rebuffer_s).add(r.rebuffer_events);
      d.add(r.switch_count).add(r.session_end_s).add(r.cell_handoffs);
    }
  }
  return d.value();
}

/// One cellular scenario: a seeded choice of cells from the pool, clients
/// with staggered joins and seeded routes.
struct CellScenario {
  std::vector<const trace::TimeSeries*> capacities;
  std::vector<const trace::SessionTraces*> contexts;  // per cell
  std::optional<player::CellularLinkModel> link;
  std::vector<std::vector<player::CellHop>> routes;
  std::vector<abr::Festive> policies;
  std::vector<player::SessionClient> clients;
};

class RichCellsWorkload final : public Workload {
 public:
  explicit RichCellsWorkload(std::uint64_t seed)
      : seed_(seed),
        manifest_("cells", kVideoLengthS, kSegmentS,
                  media::BitrateLadder::evaluation14()),
        engine_(player::SessionEngineConfig{player::PlayerConfig{}, 0.05, 7200.0}) {}

  std::string describe() const override {
    return "SessionEngine::run on " + std::to_string(kCellScenarios) +
           " CellularLinkModel scenarios per unit (4/6/8 cells, 16/24/32 "
           "FESTIVE clients), one engine run per worker item, jobs " +
           std::to_string(kJobs);
  }

  bool setup(SpanLog* log) override {
    std::vector<media::SessionSpec> specs = stratified_specs(seed_, kCellPool, 1000);
    for (media::SessionSpec& spec : specs) spec.length_s = kVideoLengthS + 60.0;
    pool_ = build_sessions(specs, {}, log);
    scenarios_.resize(kCellScenarios);
    for (std::size_t k = 0; k < kCellScenarios; ++k) build_scenario(k);

    // Verification: the warm-up unit, then a pass with one counting observer
    // per scenario, which must not perturb a result and counts the unit's
    // engine events. Both run on the unit's workers: set-up work on one
    // thread drifts like a jobs-1 unit.
    const Playbacks results = run_all(kJobs);
    std::vector<EventCounter> counters(kCellScenarios);
    Observers observers;
    for (EventCounter& counter : counters) observers.push_back(&counter);
    const Playbacks observed = run_all(kJobs, observers);
    digest_ = playback_digest(results);
    events_ = 0.0;
    for (const EventCounter& counter : counters) {
      events_ += static_cast<double>(counter.total());
    }
    double qoe = 0.0, energy = 0.0, stall = 0.0, clients = 0.0;
    for (const auto& scenario : results) {
      for (const player::PlaybackResult& r : scenario) {
        qoe += sim::session_mean_qoe(r, qoe_model_);
        energy += sim::session_energy_j(r, power_model_);
        stall += r.startup_delay_s + r.total_rebuffer_s;
        clients += 1.0;
      }
    }
    means_ = {qoe / clients, energy / clients, stall / clients, digest_};
    return outputs_ok(results) && playback_digest(observed) == digest_;
  }

  UnitSample unit(std::size_t) override {
    const std::int64_t t0 = now_ns();
    const Playbacks results = run_all(kJobs);
    UnitSample sample;
    sample.ms = ms_since(t0);
    for (const auto& scenario : results) {
      sample.sessions += static_cast<double>(scenario.size());
    }
    sample.events = events_;
    sample.ok = outputs_ok(results) && playback_digest(results) == digest_;
    return sample;
  }

  SimulatedMeans simulated() const override { return means_; }

  TraceResult trace(double seconds, SpanLog& log) override {
    TraceResult out;
    const std::int64_t start = now_ns();
    std::vector<double> plain_ms, j4_ms, traced_ms, observer_ratio;
    PolicyTime festive_time;
    EventCounter counter;
    double clients = 0.0;
    const auto check = [&](const Playbacks& results) {
      ++out.attempted;
      if (!outputs_ok(results) || playback_digest(results) != digest_) ++out.failed;
    };
    for (std::int64_t u = 0;; ++u) {
      const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
      if (u >= 3 && elapsed > 0.8 * seconds) break;

      // Each timing stops before its outputs are checked.
      std::int64_t t0 = now_ns();
      Playbacks results = run_all(1);
      plain_ms.push_back(ms_since(t0));
      check(results);

      t0 = now_ns();
      results = run_all(kJobs);
      j4_ms.push_back(ms_since(t0));
      check(results);

      t0 = now_ns();
      Playbacks traced;
      {
        ScopedSpan unit_span(&log, "sim.cells.unit", u);
        for (CellScenario& sc : scenarios_) {
          std::vector<TimedPolicy> timed;
          timed.reserve(sc.policies.size());
          for (auto& policy : sc.policies) timed.emplace_back(policy, festive_time);
          std::vector<player::SessionClient> traced_clients = sc.clients;
          for (std::size_t c = 0; c < traced_clients.size(); ++c) {
            traced_clients[c].policy = &timed[c];
          }
          ScopedSpan span(&log, "player.engine.run", u);
          traced.push_back(engine_.run(traced_clients, *sc.link, &counter));
          clients += static_cast<double>(traced.back().size());
        }
      }
      traced_ms.push_back(ms_since(t0));
      check(traced);

      NoopObserver noop;
      const Observers noops(kCellScenarios, &noop);
      t0 = now_ns();
      results = run_all(1, noops);
      observer_ratio.push_back(ms_since(t0) / plain_ms.back());
      check(results);
    }

    auto& v = out.values;
    const double unit_ns = sum(log.durations("sim.cells.unit"));
    const double policy_ns = static_cast<double>(festive_time.ns);
    v["bench.unit_ms_j1"] = median(plain_ms);
    v["util.thread_pool.speedup_j4"] = median(plain_ms) / median(j4_ms);
    v["bench.trace_overhead"] = median(traced_ms) / median(plain_ms);
    v["abr.festive.choose_level_ns"] =
        festive_time.calls > 0
            ? policy_ns / static_cast<double>(festive_time.calls) : 0.0;
    v["player.policy_share"] = policy_ns / unit_ns;
    v["player.engine_self_share"] =
        (sum(log.durations("player.engine.run")) - policy_ns) / unit_ns;
    v["player.observer_overhead"] = median(observer_ratio);
    v["trace.build_session_ms"] = median(log.durations("trace.build_session")) * 1e-6;
    add_event_metrics(counter, clients, v);
    out.notes.push_back("rich_cells traced run: " + std::to_string(plain_ms.size()) +
                        " iterations of (serial unit, jobs-4 unit, traced serial "
                        "unit, serial unit with a no-op observer)");
    return out;
  }

 private:
  void build_scenario(std::size_t k) {
    CellScenario& sc = scenarios_[k];
    // Largest scenarios first, so the workers' dynamic fan-out finishes
    // together.
    const std::size_t per_size = kCellScenarios / kScenarioCells.size();
    const std::size_t cells = kScenarioCells[kScenarioCells.size() - 1 - k / per_size];
    const std::size_t n_clients = cells * kClientsPerCell;
    const std::uint64_t lane = 1000 * (k + 2);
    const std::vector<std::size_t> order =
        seeded_permutation(derive_seed(seed_, lane), kCellPool);
    for (std::size_t c = 0; c < cells; ++c) {
      sc.contexts.push_back(&pool_[order[c]]);
      sc.capacities.push_back(&pool_[order[c]].throughput_mbps);
    }
    sc.link.emplace(sc.capacities);
    sc.policies.resize(n_clients);
    sc.routes.resize(n_clients);
    for (std::size_t c = 0; c < n_clients; ++c) {
      const std::uint64_t s = derive_seed(seed_, lane + 100 + c);
      // A hop every 20-30 s to a seeded cell, until playback must be over.
      double t = seeded_uniform(s, 5.0, 15.0);
      for (std::uint64_t m = 0; t < kVideoLengthS + 60.0; ++m) {
        const auto cell = static_cast<std::size_t>(seeded_uniform(
            derive_seed(s, m), 0.0, static_cast<double>(cells)));
        sc.routes[c].push_back({t, std::min(cell, cells - 1)});
        t += seeded_uniform(derive_seed(s, m + 1000), 20.0, 30.0);
      }
      player::SessionClient client;
      client.manifest = &manifest_;
      client.policy = &sc.policies[c];
      client.home_cell = c % cells;
      client.context = sc.contexts[client.home_cell];
      client.join_time_s =
          0.5 * static_cast<double>(c) + seeded_uniform(s + 1, 0.0, 0.5);
      client.route = sc.routes[c];
      sc.clients.push_back(client);
    }
  }

  /// One engine run per scenario, `jobs` at a time: the scenarios share no
  /// mutable state (each owns its policies and link). `observers` is empty
  /// or holds scenario k's observer at k; observers are not thread-safe, so
  /// scenarios that run at once must not share one.
  Playbacks run_all(std::size_t jobs, const Observers& observers = {}) const {
    return util::parallel_map(jobs, scenarios_.size(), [&](std::size_t k) {
      return engine_.run(scenarios_[k].clients, *scenarios_[k].link,
                         observers.empty() ? nullptr : observers[k]);
    });
  }

  /// Every client played every segment, with finite positive energy and a
  /// session QoE inside the model's MOS range.
  bool outputs_ok(const Playbacks& scenarios) const {
    if (scenarios.size() != scenarios_.size()) return false;
    const qoe::QoeModelParams& mos = qoe_model_.params();
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
      if (scenarios[k].size() != scenarios_[k].clients.size()) return false;
      for (const player::PlaybackResult& r : scenarios[k]) {
        if (r.tasks.size() != manifest_.num_segments()) return false;
        if (!(std::isfinite(r.session_end_s) && r.total_rebuffer_s >= 0.0)) {
          return false;
        }
        const double qoe = sim::session_mean_qoe(r, qoe_model_);
        const double energy = sim::session_energy_j(r, power_model_);
        if (!(qoe >= mos.mos_min && qoe <= mos.mos_max)) return false;
        if (!(std::isfinite(energy) && energy > 0.0)) return false;
      }
    }
    return true;
  }

  std::uint64_t seed_;
  media::VideoManifest manifest_;
  player::SessionEngine engine_;
  qoe::QoeModel qoe_model_;
  power::PowerModel power_model_;
  std::vector<trace::SessionTraces> pool_;
  std::vector<CellScenario> scenarios_;
  std::uint64_t digest_ = 0;
  double events_ = 0.0;
  SimulatedMeans means_;
};

}  // namespace

std::unique_ptr<Workload> make_rich_evaluation(std::uint64_t seed) {
  return std::make_unique<RichEvaluationWorkload>(seed);
}

std::unique_ptr<Workload> make_rich_cells(std::uint64_t seed) {
  return std::make_unique<RichCellsWorkload>(seed);
}

}  // namespace perfbench
