#pragma once
// Fleet-scale simulation: O(live sessions) event-driven streaming over a
// sharded CellNetwork (DESIGN §12).
//
// Where Evaluation replays a handful of trace-backed sessions through the
// full player::SessionEngine, run_fleet answers population questions — what
// do the QoE / energy / rebuffer *distributions* look like across 100k
// sessions on a city of cells? — with three structural changes:
//
//   * Event queue, not stepping. Each region runs one binary min-heap of
//     (time, session, kind) events; a session costs O(log live) per segment
//     instead of O(steps), and idle time costs nothing.
//   * SoA arena state. Per-session state lives in parallel arrays indexed by
//     slot, with a free list recycling slots as sessions finish — memory is
//     O(cells + peak live sessions), not O(total sessions).
//   * Streaming aggregation. Per-session scalars fold into RunningStats,
//     P^2 quantile markers, and seeded reservoir samples (util/stats.h) the
//     moment a session ends; nothing per-session is retained.
//
// Sharding: cells are split into `regions` contiguous blocks; sessions are
// assigned round-robin (id % regions) and are mobile within their region
// only. Each region is a pure function of (config, region index) — seeds
// come from sim::seed_mix, never from shared state — so regions run on
// util::parallel_map and merge serially in region order: bit-identical
// results at any job count (DESIGN §6).
//
// Link model: quasi-stationary processor sharing. A request entering cell c
// at time t is granted share = capacity_c(t) / (downloads in c + 1), frozen
// for the transfer. This is the documented fleet-scale approximation of the
// engine's exact per-step re-sharing; the rich path remains the reference
// for within-session fidelity, the fleet path for population statistics.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eacs/core/cost_stats.h"
#include "eacs/core/decision_cache.h"
#include "eacs/power/model.h"
#include "eacs/qoe/model.h"
#include "eacs/sim/cell_network.h"
#include "eacs/sim/execution.h"
#include "eacs/sim/fleet_faults.h"
#include "eacs/util/stats.h"

namespace eacs::sim {

/// Client policy the fleet's sessions run.
enum class FleetPolicy {
  /// Throughput-based ABR with the context-aware rung cap (PR 8 baseline).
  kThroughput,
  /// The paper's planner: every request solves the Eq. 11 rolling-horizon DP
  /// on its (quantized) context snapshot, memoized through one DecisionCache
  /// shard per region. See DESIGN "Decision cache & quantization".
  kPlanner,
};

/// Graceful-degradation knobs: the retry/backoff ladder sessions enter when
/// no live cell is reachable, and the overload triggers that shed the
/// planner policy to the throughput policy (DESIGN §14). Defaults disable
/// both shed triggers and give a 2 s -> 30 s exponential backoff ladder;
/// the backoff path only ever runs when faults kill cells, so the defaults
/// are inert on a clean run.
struct FleetResilienceConfig {
  /// Backoff ladder for a session whose whole region is dead: sleep
  /// base * factor^(attempt-1) seconds, capped, burning pause power the
  /// whole time (wasted-energy accounting mirrors the rich player's stall
  /// pricing). After `max_retries` consecutive failures the session is
  /// abandoned (counted, never folded into the QoE aggregates).
  double backoff_base_s = 2.0;
  double backoff_factor = 2.0;
  double backoff_max_s = 30.0;
  std::size_t max_retries = 6;

  /// Live-session overload trigger: when a region's live count reaches this,
  /// planner decisions shed to the throughput policy until the live count
  /// falls back to `shed_live_recover` (0 = half the threshold). 0 disables.
  std::size_t shed_live_threshold = 0;
  std::size_t shed_live_recover = 0;

  /// Cache-thrash trigger: over each trailing window of
  /// `shed_miss_window` planner consultations, a miss rate at or above
  /// `shed_miss_rate_threshold` sheds planner decisions for `shed_hold_s`
  /// seconds. A threshold > 1 disables the trigger.
  double shed_miss_rate_threshold = 2.0;
  std::size_t shed_miss_window = 256;
  double shed_hold_s = 30.0;
};

/// Fleet run parameters. Defaults give a quick smoke-sized run; benchmarks
/// scale num_sessions to 100k+.
struct FleetConfig {
  CellNetworkConfig network;

  std::size_t num_sessions = 1000;
  /// Constant arrival rate [sessions/s]. With finite session length this
  /// bounds the live set (Little's law), which is what keeps peak memory
  /// flat as num_sessions grows.
  double arrival_rate_per_s = 4.0;

  // Content: fixed-duration segments over the paper-style bitrate ladder.
  double segment_duration_s = 2.0;
  std::size_t segments_per_session = 30;
  std::vector<double> ladder_mbps = {0.35, 0.75, 1.2, 2.4, 4.8};

  // Player knobs (mirroring player::PlayerConfig's semantics).
  double buffer_threshold_s = 30.0;  ///< pause requesting above this level
  double startup_buffer_s = 4.0;     ///< playback begins once buffered
  double abr_safety = 0.8;           ///< request <= safety * estimated rate
  std::size_t bandwidth_window = 5;  ///< harmonic-mean window (SoA inline)

  // Context-aware rung cap (paper §IV): under strong vibration the fleet
  // client caps its rung, trading bitrate for energy exactly like the rich
  // path's context-aware policy. Vibration is procedural per session.
  double vibration_cap_threshold = 1.2;  ///< m/s^2; above this, cap the rung
  std::size_t vibration_rung_cap = 2;    ///< max rung index while vibrating

  // Mobility: serving cell re-evaluated at every request boundary.
  double handoff_hysteresis_db = 3.0;  ///< finite and >= 0

  /// Which client policy the sessions run.
  FleetPolicy policy = FleetPolicy::kThroughput;
  // Planner-policy knobs (ignored under kThroughput).
  std::size_t planner_horizon = 5;        ///< rolling-horizon window (tasks)
  std::size_t planner_startup_level = 0;  ///< first segment's rung (< ladder)
  double planner_alpha = 0.5;             ///< Eq. 11 energy weight
  /// Per-region decision-cache shard configuration. The fleet default is the
  /// quantized mode: population hit rates need bucket coalescing, and the
  /// quantization error is bounded + studied in EXPERIMENTS.md. capacity=0
  /// gives the uncached ("naive per-session solving") reference with
  /// identical decisions. The capacity is raised well above the observed
  /// distinct-key population (~2-3k per region shard at 10k sessions):
  /// direct-mapped tables thrash hard once revisited keys alternate in a
  /// slot, so head-room is cheap insurance (~10 MB per region).
  /// prev_level_bucket = 2 pairs neighbouring rungs in the key: on the dense
  /// evaluation ladder the switch-penalty term barely distinguishes them,
  /// and it roughly halves the compulsory-miss floor (EXPERIMENTS.md).
  core::DecisionCacheConfig planner_cache{.exact = false,
                                          .prev_level_bucket = 2,
                                          .capacity = 131072};

  /// Cells are split into this many contiguous shards; sessions are pinned
  /// to region (id % regions). Must be in [1, num_cells]. The region count is
  /// part of the *model* (mobility range), not an execution knob: changing
  /// it changes results; changing exec.jobs never does.
  std::size_t regions = 8;

  std::size_t reservoir_capacity = 1024;  ///< per-metric sample reservoir

  /// Fault overlay (outages / brownouts / collapses / surges). The default
  /// (empty) spec is a certified no-op: run_fleet passes no overlay to the
  /// CellNetwork queries and results are bitwise unchanged.
  FleetFaultSpec faults;
  /// Degradation ladder + overload-shed triggers (see above).
  FleetResilienceConfig resilience;

  qoe::QoeModelParams qoe;
  power::PowerModelParams power;

  std::uint64_t seed = 0xF1EE'7CA5ULL;
  ExecutionPolicy exec;
};

/// The counters every region reports and the fleet reports as their sum
/// (run_fleet merges them with += in region order).
struct FleetCounters {
  std::size_t sessions = 0;  ///< completed sessions; with faults,
                             ///< sessions + abandoned_sessions == num_sessions
  std::size_t events = 0;    ///< events processed
  std::size_t requests = 0;  ///< segment requests issued
  std::size_t handoffs = 0;  ///< serving-cell changes (hysteresis rule)
  std::size_t stall_events = 0;
  /// Fleet-wide, the sum of per-region peak live counts: a conservative
  /// bound on the global peak, and the quantity the O(live) memory claim is
  /// about.
  std::size_t peak_live_sessions = 0;
  // Degradation ladder counters (DESIGN §14); all zero on a clean run.
  std::size_t escape_handoffs = 0;     ///< forced moves off a dead cell
  std::size_t backoff_retries = 0;     ///< backoff sleeps scheduled
  std::size_t abandoned_sessions = 0;  ///< gave up after max_retries
  std::size_t policy_sheds = 0;        ///< planner -> throughput transitions
  std::size_t policy_recoveries = 0;   ///< throughput -> planner transitions
  std::size_t shed_decisions = 0;      ///< decisions taken while shed
  double degraded_time_s = 0.0;        ///< total session-time in backoff
  double wasted_energy_j = 0.0;        ///< pause power burned in backoff
  /// Planner-policy instrumentation of the cache shards (all zero under
  /// kThroughput): cache hits/misses/evictions, plans, model evals.
  /// cache_hits + cache_misses is the number of planner consultations,
  /// plans the number of cold DP solves.
  core::CostStats planner;

  FleetCounters& operator+=(const FleetCounters& other);
  bool operator==(const FleetCounters&) const = default;
};

/// Per-region streaming aggregates (the shard-local view, kept in the
/// result for locality analysis; P^2 medians are per-region because P^2
/// markers cannot be merged across shards). Deterministic in (config,
/// region index).
struct FleetRegionMetrics : FleetCounters {
  std::size_t region = 0;
  std::size_t first_cell = 0;
  std::size_t num_cells = 0;
  double median_qoe = 0.0;        ///< P^2 streaming estimate
  double median_energy_j = 0.0;   ///< P^2 streaming estimate

  bool operator==(const FleetRegionMetrics&) const = default;
};

/// Fleet-wide outcome: the regions' counters summed, streaming moments and
/// reservoir percentiles, no per-session storage.
struct FleetMetrics : FleetCounters {
  RunningStats qoe;
  RunningStats energy_j;
  RunningStats bitrate_mbps;
  RunningStats rebuffer_s;
  RunningStats startup_s;

  /// Seeded reservoir samples for fleet-wide percentiles (mergeable across
  /// shards, unlike P^2 — see util/stats.h).
  ReservoirSampler qoe_sample{1};       // re-seeded by run_fleet
  ReservoirSampler energy_sample{1};    // re-seeded by run_fleet
  ReservoirSampler rebuffer_sample{1};  // re-seeded by run_fleet

  std::vector<FleetRegionMetrics> regions;

  /// Reservoir-estimated fleet-wide quantiles, p in [0, 1].
  double qoe_quantile(double p) const { return qoe_sample.quantile(p); }
  double energy_quantile(double p) const { return energy_sample.quantile(p); }
  double rebuffer_quantile(double p) const {
    return rebuffer_sample.quantile(p);
  }
};

/// Runs the fleet. Deterministic in (config): bit-identical at any
/// exec.jobs. Throws std::invalid_argument on an empty ladder, zero
/// sessions or more than INT_MAX, zero cells or segments, a malformed
/// network config, a non-finite or non-positive segment duration / arrival
/// rate, more regions than cells (or zero regions), a negative or
/// non-finite handoff hysteresis, a NaN vibration cap threshold (+inf, which
/// disables the cap, is valid), a zero reservoir capacity, a planner startup
/// level beyond the ladder or a planner alpha outside [0, 1] (both under
/// kPlanner), a malformed fault spec, or malformed resilience knobs.
FleetMetrics run_fleet(const FleetConfig& config);

}  // namespace eacs::sim
