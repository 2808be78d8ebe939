#include "eacs/sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "eacs/core/horizon.h"
#include "eacs/core/objective.h"
#include "eacs/player/player.h"
#include "eacs/sim/fleet_checkpoint.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/util/thread_pool.h"

namespace eacs::sim {
namespace {

// seed_mix "grid index" lanes reserved by the fleet path (cell indices use
// the plain lane in CellNetwork; these stay clear of real cell counts).
constexpr std::size_t kVibrationLane = 0x00F1'0001;
constexpr std::size_t kReservoirLane = 0x00F1'0002;

/// Per-session procedural vibration level [m/s^2]: a stable draw skewed
/// toward stillness (squared uniform), so a minority of the fleet is
/// "walking" and hits the context-aware rung cap.
double session_vibration(std::uint64_t seed, int session_id) noexcept {
  const double u = seed_unit(seed_mix(seed, kVibrationLane, session_id));
  return 3.0 * u * u;
}

using Event = FleetEventState;
constexpr std::uint8_t kArrive = 0;
constexpr std::uint8_t kRequest = 1;
constexpr std::uint8_t kComplete = 2;

/// Min-heap order (t, session, kind): deterministic pops under duplicate
/// timestamps, independent of heap internals. Because each session owns at
/// most one pending event, the order is a strict total order — which is what
/// lets a checkpoint re-push the captured event multiset and reproduce the
/// remaining pop sequence exactly.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.t_s != b.t_s) return a.t_s > b.t_s;
    if (a.session != b.session) return a.session > b.session;
    return a.kind > b.kind;
  }
};

/// The live-session arena; FleetArenaState holds its columns. A 100k-session
/// run with a few hundred live at a time allocates a few hundred slots, and
/// the bandwidth window needs no per-session allocation.
struct SessionArena : FleetArenaState {
  explicit SessionArena(std::size_t bandwidth_window) {
    window = std::max<std::size_t>(1, bandwidth_window);
  }

  std::uint32_t acquire(int id, double now, std::size_t start_cell) {
    const bool grow = free_slots.empty();
    const auto slot =
        grow ? static_cast<std::uint32_t>(slots()) : free_slots.back();
    if (!grow) free_slots.pop_back();
    const auto start = [&](const char*, auto& column, const auto& fresh,
                           std::size_t per_slot) {
      if (grow) column.resize(column.size() + per_slot);
      if constexpr (!std::is_same_v<std::decay_t<decltype(fresh)>, Stale>) {
        std::fill_n(
            column.begin() + static_cast<std::ptrdiff_t>(slot * per_slot),
            per_slot, fresh);
      }
    };
    columns(*this, start, id, start_cell, now);
    return slot;
  }

  void release(std::uint32_t slot) { free_slots.push_back(slot); }

  void observe(std::uint32_t slot, double mbps) {
    throughputs[slot * window + seen[slot] % window] = mbps;
    ++seen[slot];
  }

  /// Harmonic mean over the window in storage order, the rich engine's
  /// estimator (SlidingWindow) rule; 0 before any sample.
  double estimate(std::uint32_t slot) const {
    return eacs::harmonic_mean(std::span<const double>(throughputs).subspan(
        slot * window, std::min(seen[slot], window)));
  }
};

/// Shard-local aggregates. Default-constructible for parallel_map; the
/// reservoirs are re-seeded per region before use.
struct Shard {
  FleetRegionMetrics region;
  RunningStats qoe, energy_j, bitrate_mbps, rebuffer_s, startup_s;
  ReservoirSampler qoe_sample{1};
  ReservoirSampler energy_sample{1};
  ReservoirSampler rebuffer_sample{1};
  P2Quantile median_qoe{0.5};
  P2Quantile median_energy{0.5};

  /// Calls f(aggregator, its state in `ckpt`) for every streaming
  /// aggregator; capture and restore both walk this list.
  template <typename Ckpt, typename F>
  void aggregators(Ckpt& ckpt, F&& f) {
    f(qoe, ckpt.qoe);
    f(energy_j, ckpt.energy_j);
    f(bitrate_mbps, ckpt.bitrate_mbps);
    f(rebuffer_s, ckpt.rebuffer_s);
    f(startup_s, ckpt.startup_s);
    f(qoe_sample, ckpt.qoe_sample);
    f(energy_sample, ckpt.energy_sample);
    f(rebuffer_sample, ckpt.rebuffer_sample);
    f(median_qoe, ckpt.median_qoe);
    f(median_energy, ckpt.median_energy);
  }
};

/// One region's full simulation state: a pure function of (config, region
/// index, optional checkpoint). Extracted from the old run_region free
/// function so the same event loop can run to completion (run_fleet), stop
/// at a checkpoint cut (run_fleet_until + capture), or continue from one
/// (restore + resume_fleet). Sessions are pinned by id % regions; cells are
/// the region's contiguous block.
struct RegionSim {
  const FleetConfig& config;
  const CellNetwork& network;
  const qoe::QoeModel& qoe_model;
  const power::PowerModel& power_model;
  /// Non-null only when at least one fault episode exists. Every fault code
  /// path is gated on this pointer, so the empty spec never executes a
  /// single extra floating-point operation — the clean-run no-op guarantee.
  const FleetFaultModel* faults;
  std::size_t num_regions;
  std::size_t region;
  std::size_t first_cell = 0;
  std::size_t cell_count = 0;

  Shard shard;
  SessionArena arena;
  std::vector<std::size_t> cell_active;  // in-flight downloads per cell
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
  std::size_t live = 0;

  // Planner-policy machinery: one cache shard per region, one Objective per
  // region, and a reusable window of TaskEnvironments (sizes/durations are
  // fleet-constant — only the context fields change per solve, and only to
  // canonical representatives).
  bool planner = false;
  std::optional<core::Objective> objective;
  std::optional<core::DecisionCache> cache;
  std::vector<core::TaskEnvironment> window_tasks;
  std::vector<std::uint64_t> ladder_ids;  // ladder_ids[w-1]: window size w

  FleetShedState shed;  // DESIGN §14 degradation ladder

  RegionSim(const FleetConfig& config_in, const CellNetwork& network_in,
            const qoe::QoeModel& qoe_model_in,
            const power::PowerModel& power_model_in,
            const FleetFaultModel* faults_in, std::size_t region_in,
            std::size_t num_regions_in)
      : config(config_in),
        network(network_in),
        qoe_model(qoe_model_in),
        power_model(power_model_in),
        faults(faults_in != nullptr && !faults_in->empty() ? faults_in
                                                           : nullptr),
        num_regions(num_regions_in),
        region(region_in),
        arena(config_in.bandwidth_window) {
    const std::size_t base = network.num_cells() / num_regions;
    const std::size_t rem = network.num_cells() % num_regions;
    first_cell = region * base + std::min(region, rem);
    cell_count = base + (region < rem ? 1 : 0);

    shard.region.region = region;
    shard.region.first_cell = first_cell;
    shard.region.num_cells = cell_count;
    shard.qoe_sample = ReservoirSampler(
        config.reservoir_capacity,
        seed_mix(config.seed, kReservoirLane, static_cast<int>(region * 3)));
    shard.energy_sample = ReservoirSampler(
        config.reservoir_capacity,
        seed_mix(config.seed, kReservoirLane, static_cast<int>(region * 3 + 1)));
    shard.rebuffer_sample = ReservoirSampler(
        config.reservoir_capacity,
        seed_mix(config.seed, kReservoirLane, static_cast<int>(region * 3 + 2)));
    cell_active.assign(cell_count, 0);

    planner = config.policy == FleetPolicy::kPlanner;
    if (planner) {
      objective.emplace(qoe_model, power_model,
                        core::ObjectiveConfig{
                            .alpha = config.planner_alpha,
                            .buffer_threshold_s = config.buffer_threshold_s,
                            .context_aware = true});
      cache.emplace(config.planner_cache);
      window_tasks.resize(config.planner_horizon);
      ladder_ids.resize(config.planner_horizon);
      for (std::size_t k = 0; k < config.planner_horizon; ++k) {
        core::TaskEnvironment& env = window_tasks[k];
        env.index = k;
        env.duration_s = config.segment_duration_s;
        env.size_megabits.reserve(config.ladder_mbps.size());
        for (const double mbps : config.ladder_mbps) {
          env.size_megabits.push_back(mbps * config.segment_duration_s);
        }
        ladder_ids[k] = core::hash_task_ladder({window_tasks.data(), k + 1});
      }
    }
  }

  /// Constant-rate arrival schedule, shared fleet-wide: session s arrives at
  /// s / rate whatever region it lands in — or at the surge-warped time when
  /// a flash crowd is configured.
  void seed_arrivals() {
    const bool surges = faults != nullptr && faults->has_surges();
    for (int s = static_cast<int>(region);
         s < static_cast<int>(config.num_sessions);
         s += static_cast<int>(num_regions)) {
      const double t =
          surges ? faults->arrival_time(static_cast<std::size_t>(s),
                                        config.arrival_rate_per_s)
                 : static_cast<double>(s) / config.arrival_rate_per_s;
      heap.push({t, s, kArrive, 0});
    }
  }

  /// Signal with the fault overlay applied; only called when faults != null.
  double fault_signal(int session_id, std::size_t cell, double t_s) const {
    return network.signal_dbm(session_id, cell, t_s) +
           faults->signal_offset_db(cell, t_s);
  }

  /// Advances playback to `now` by the engine's drain rule; accrues stalls.
  void drain(std::uint32_t slot, double now) {
    const double dt = now - arena.last_event_s[slot];
    arena.last_event_s[slot] = now;
    const double stall = player::drain_buffer(arena.playing[slot] != 0,
                                              arena.buffer_s[slot], dt);
    if (stall <= 0.0) return;
    arena.rebuffer_s[slot] += stall;
    arena.seg_rebuffer_s[slot] += stall;
    ++shard.region.stall_events;
  }

  /// Strongest live (non-dead) cell in the region by faulted signal, lowest
  /// index winning ties; num_cells() sentinel when the whole region is dead.
  std::size_t best_live_cell(int session_id, double now) const {
    std::size_t best = network.num_cells();
    double best_dbm = -std::numeric_limits<double>::infinity();
    for (std::size_t c = first_cell; c < first_cell + cell_count; ++c) {
      if (faults->cell_dead(c, now)) continue;
      const double dbm = fault_signal(session_id, c, now);
      if (best == network.num_cells() || dbm > best_dbm) {
        best_dbm = dbm;
        best = c;
      }
    }
    return best;
  }

  /// Fault-aware serving-cell maintenance at a request boundary. Returns
  /// true when the request can proceed on a live cell; false when the
  /// session backed off (re-enqueued) or was abandoned.
  bool ensure_live_cell(const Event& event, double now) {
    const std::uint32_t slot = event.slot;
    const std::size_t current = arena.cell[slot];
    if (!faults->cell_dead(current, now)) {
      // Healthy serving cell: the hysteresis handoff rule, restricted to
      // live cells (mirrors CellNetwork::serving_cell).
      const std::size_t best = best_live_cell(event.session, now);
      if (best != current &&
          fault_signal(event.session, best, now) -
                  fault_signal(event.session, current, now) >
              config.handoff_hysteresis_db) {
        arena.cell[slot] = best;
        ++shard.region.handoffs;
      }
      arena.retries[slot] = 0;
      return true;
    }
    // Dead serving cell: escape to the strongest live cell in the region —
    // no hysteresis, any live cell beats a dead one.
    const std::size_t best = best_live_cell(event.session, now);
    if (best != network.num_cells()) {
      arena.cell[slot] = best;
      ++shard.region.escape_handoffs;
      arena.retries[slot] = 0;
      return true;
    }
    // Whole region dead: bounded exponential backoff, burning pause power
    // (the screen is on, the spinner spins — the rich player's stall
    // pricing), then abandonment once the retry budget is spent.
    ++arena.retries[slot];
    if (arena.retries[slot] > config.resilience.max_retries) {
      ++shard.region.abandoned_sessions;
      --live;
      arena.release(slot);
      return false;
    }
    double backoff = config.resilience.backoff_base_s;
    for (std::uint32_t i = 1; i < arena.retries[slot]; ++i) {
      backoff *= config.resilience.backoff_factor;
    }
    backoff = std::min(backoff, config.resilience.backoff_max_s);
    const double wasted = power_model.params().p_pause_w * backoff;
    arena.energy_j[slot] += wasted;
    shard.region.wasted_energy_j += wasted;
    shard.region.degraded_time_s += backoff;
    ++shard.region.backoff_retries;
    heap.push({now + backoff, event.session, kRequest, slot});
    return false;
  }

  /// Overload-shed decision for this request, updating the trigger state
  /// machines (transitions counted, never silent).
  bool shed_active(double now) {
    const FleetResilienceConfig& r = config.resilience;
    if (r.shed_live_threshold > 0) {
      const std::size_t recover =
          r.shed_live_recover > 0 ? r.shed_live_recover
                                  : r.shed_live_threshold / 2;
      if (shed.live_shed) {
        if (live <= recover) {
          shed.live_shed = false;
          ++shard.region.policy_recoveries;
        }
      } else if (live >= r.shed_live_threshold) {
        shed.live_shed = true;
        ++shard.region.policy_sheds;
      }
    }
    if (shed.miss_shed && now >= shed.shed_until_s) {
      shed.miss_shed = false;
      ++shard.region.policy_recoveries;
    }
    return shed.live_shed || shed.miss_shed;
  }

  /// Feeds the trailing-window miss-rate trigger after a planner
  /// consultation. Recovery is time-held (shed_until_s): no consultations
  /// happen while shed, so a rate-based recovery could never fire.
  void note_consultation(bool miss, double now) {
    const FleetResilienceConfig& r = config.resilience;
    if (r.shed_miss_rate_threshold > 1.0 || r.shed_miss_window == 0) return;
    ++shed.window_consults;
    if (miss) ++shed.window_misses;
    if (shed.window_consults >= r.shed_miss_window) {
      const double rate = static_cast<double>(shed.window_misses) /
                          static_cast<double>(shed.window_consults);
      if (!shed.miss_shed && rate >= r.shed_miss_rate_threshold) {
        shed.miss_shed = true;
        shed.shed_until_s = now + r.shed_hold_s;
        ++shard.region.policy_sheds;
      }
      shed.window_consults = 0;
      shed.window_misses = 0;
    }
  }

  /// Throughput-based ABR with the context-aware rung cap — the baseline
  /// policy, and the degraded mode planner regions shed into.
  std::size_t throughput_level(std::uint32_t slot, int session_id) const {
    const std::size_t top_level = config.ladder_mbps.size() - 1;
    std::size_t level = 0;
    const double est = arena.estimate(slot);
    for (std::size_t l = top_level; l > 0; --l) {
      if (config.ladder_mbps[l] <= config.abr_safety * est) {
        level = l;
        break;
      }
    }
    if (session_vibration(config.seed, session_id) >
        config.vibration_cap_threshold) {
      level = std::min(level, config.vibration_rung_cap);
    }
    return level;
  }

  /// Processes events strictly before `limit` (pass +inf to run dry). The
  /// cut convention: an event at exactly the checkpoint time belongs to the
  /// resumed run.
  void run(double limit) {
    core::CostStatsScope stats_scope(shard.region.planner);
    const double seg_s = config.segment_duration_s;
    const std::size_t top_level = config.ladder_mbps.size() - 1;

    while (!heap.empty() && heap.top().t_s < limit) {
      const Event event = heap.top();
      heap.pop();
      ++shard.region.events;
      const double now = event.t_s;

      if (event.kind == kArrive) {
        const std::size_t start =
            network.best_cell_in(event.session, now, first_cell, cell_count);
        const std::uint32_t slot = arena.acquire(event.session, now, start);
        ++live;
        shard.region.peak_live_sessions =
            std::max(shard.region.peak_live_sessions, live);
        heap.push({now, event.session, kRequest, slot});
        continue;
      }

      const std::uint32_t slot = event.slot;
      if (event.kind == kRequest) {
        drain(slot, now);
        // Throttle: above the buffer threshold, sleep until it drains back.
        // Only throttle when the wake time actually advances: after a wakeup
        // the buffer can sit one ulp above the threshold, and a sleep shorter
        // than ulp(now) would re-enqueue at the identical timestamp forever.
        if (arena.playing[slot] != 0 &&
            arena.buffer_s[slot] > config.buffer_threshold_s) {
          const double wake =
              now + (arena.buffer_s[slot] - config.buffer_threshold_s);
          if (wake > now) {
            heap.push({wake, event.session, kRequest, slot});
            continue;
          }
        }
        // Handoff check at every request boundary (hysteresis rule). With a
        // fault overlay this also escapes dead cells, backs off, or abandons.
        if (faults == nullptr) {
          const std::size_t serving = network.serving_cell(
              event.session, arena.cell[slot], now,
              config.handoff_hysteresis_db, first_cell, cell_count);
          if (serving != arena.cell[slot]) {
            arena.cell[slot] = serving;
            ++shard.region.handoffs;
          }
        } else if (!ensure_live_cell(event, now)) {
          continue;
        }
        std::size_t level = 0;
        if (planner) {
          // The paper's planner: rolling-horizon Eq. 11 DP on the session's
          // context snapshot, memoized through the region's cache shard. The
          // startup segment (no throughput sample yet) takes the fixed
          // startup rung, mirroring the selectors' startup path, and
          // bypasses the cache. No vibration rung cap here — the objective
          // itself prices vibration via the QoE impairment.
          if (arena.seen[slot] == 0) {
            level = std::min(config.planner_startup_level, top_level);
          } else if (shed_active(now)) {
            // Overload: degrade to the throughput policy for this decision.
            level = throughput_level(slot, event.session);
            ++shard.region.shed_decisions;
          } else {
            // Segments-remaining quantization (caller-side, since the
            // horizon is planner knowledge): in quantized mode every window
            // is canonicalized to the full horizon — the last few segments
            // plan over phantom successors, which only perturbs the receding
            // horizon's *lookahead*, never the committed first action's
            // context. Collapses the remaining-count key dimension to one
            // value. Exact mode keeps the true min(horizon, left) window.
            const std::size_t window =
                config.planner_cache.exact
                    ? std::min(config.planner_horizon,
                               config.segments_per_session -
                                   arena.next_segment[slot])
                    : config.planner_horizon;
            core::DecisionSnapshot snapshot;
            snapshot.buffer_s = arena.buffer_s[slot];
            snapshot.bandwidth_mbps = arena.estimate(slot);
            snapshot.vibration = session_vibration(config.seed, event.session);
            snapshot.signal_dbm =
                faults == nullptr
                    ? network.signal_dbm(event.session, arena.cell[slot], now)
                    : fault_signal(event.session, arena.cell[slot], now);
            snapshot.segments_remaining = window;
            if (arena.prev_level[slot] >= 0) {
              snapshot.prev_level =
                  static_cast<std::size_t>(arena.prev_level[slot]);
            }
            snapshot.ladder_id = ladder_ids[window - 1];
            snapshot.alpha = config.planner_alpha;
            const core::DecisionKey key = cache->key_for(snapshot);
            // capacity = 0 is the no-memoization reference: the arena L1 is
            // memoization too, so it is disabled there along with the table.
            const bool memoize = config.planner_cache.capacity > 0;
            bool miss = false;
            if (memoize && arena.has_last[slot] &&
                arena.last_key[slot] == key) {
              // Arena L1 (see SessionArena::last_key): same canonical key →
              // same decision, no shard probe needed.
              level = arena.last_level[slot];
              cache->count_external_hit();
            } else if (const auto hit = cache->find(key)) {
              level = *hit;
            } else {
              // Cold key: reconstruct the representatives and solve on them
              // — canonicalize-then-solve, so the stored decision is exactly
              // what any later hit on this key must return.
              miss = true;
              const core::CanonicalDecision c = cache->canonicalize(snapshot);
              for (std::size_t k = 0; k < window; ++k) {
                window_tasks[k].signal_dbm = c.signal_dbm;
                window_tasks[k].vibration = c.vibration;
                window_tasks[k].bandwidth_mbps = c.bandwidth_mbps;
              }
              level = core::plan_horizon_first_action(
                  *objective, {window_tasks.data(), window}, c.buffer_s,
                  c.prev_level);
              cache->insert(key, level);
            }
            if (memoize) {
              arena.last_key[slot] = key;
              arena.last_level[slot] = static_cast<std::uint32_t>(level);
              arena.has_last[slot] = 1;
            }
            note_consultation(miss, now);
          }
        } else {
          level = throughput_level(slot, event.session);
        }
        const double bitrate = config.ladder_mbps[level];
        // Quasi-stationary processor sharing: the share is frozen at request
        // time (fleet-scale approximation; the rich engine re-shares per
        // step). Brownouts scale the capacity; outages never reach here —
        // ensure_live_cell gates them.
        const std::size_t local = arena.cell[slot] - first_cell;
        double capacity = network.capacity_mbps(arena.cell[slot], now);
        if (faults != nullptr) {
          capacity *= faults->capacity_factor(arena.cell[slot], now);
        }
        const double share = std::max(
            capacity / static_cast<double>(cell_active[local] + 1), 1e-6);
        ++cell_active[local];
        arena.request_s[slot] = now;
        arena.level_bitrate[slot] = bitrate;
        arena.level[slot] = static_cast<std::uint32_t>(level);
        arena.size_mb[slot] = bitrate * seg_s / 8.0;
        arena.seg_rebuffer_s[slot] = 0.0;
        ++shard.region.requests;
        heap.push(
            {now + (bitrate * seg_s) / share, event.session, kComplete, slot});
        continue;
      }

      // kComplete
      drain(slot, now);
      const std::size_t local = arena.cell[slot] - first_cell;
      --cell_active[local];
      const double elapsed = std::max(now - arena.request_s[slot], 1e-9);
      const double bitrate = arena.level_bitrate[slot];
      arena.observe(slot, arena.size_mb[slot] * 8.0 / elapsed);
      arena.buffer_s[slot] += seg_s;

      const double vibration = session_vibration(config.seed, event.session);
      qoe::SegmentContext segment;
      segment.bitrate_mbps = bitrate;
      segment.vibration = vibration;
      segment.prev_bitrate_mbps = arena.prev_bitrate[slot];
      segment.rebuffer_s = arena.seg_rebuffer_s[slot];
      arena.qoe_sum[slot] += qoe_model.segment_qoe(segment);

      power::TaskEnergyInput task;
      task.size_mb = arena.size_mb[slot];
      task.bitrate_mbps = bitrate;
      task.signal_dbm =
          faults == nullptr
              ? network.signal_dbm(event.session, arena.cell[slot],
                                   0.5 * (arena.request_s[slot] + now))
              : fault_signal(event.session, arena.cell[slot],
                             0.5 * (arena.request_s[slot] + now));
      task.play_s = arena.playing[slot] != 0
                        ? std::max(0.0, elapsed - arena.seg_rebuffer_s[slot])
                        : 0.0;
      task.rebuffer_s = arena.seg_rebuffer_s[slot];
      arena.energy_j[slot] += power_model.task_energy(task);

      arena.bitrate_sum[slot] += bitrate;
      arena.prev_bitrate[slot] = bitrate;
      arena.prev_level[slot] = static_cast<int>(arena.level[slot]);
      if (arena.playing[slot] == 0 &&
          arena.buffer_s[slot] >= config.startup_buffer_s) {
        arena.playing[slot] = 1;
        arena.startup_s[slot] = now - arena.arrival_s[slot];
      }
      ++arena.next_segment[slot];
      if (arena.next_segment[slot] < config.segments_per_session) {
        heap.push({now, event.session, kRequest, slot});
        continue;
      }

      // Session end: drain the remaining buffer (priced as playback energy),
      // fold the per-session scalars into the streaming aggregates, free the
      // slot. Nothing per-session survives this point.
      if (arena.playing[slot] == 0) {
        arena.startup_s[slot] = now - arena.arrival_s[slot];
      }
      arena.energy_j[slot] +=
          power_model.playback_power(bitrate) * arena.buffer_s[slot];
      const double segments = static_cast<double>(config.segments_per_session);
      const double session_qoe = arena.qoe_sum[slot] / segments;
      const double session_energy = arena.energy_j[slot];
      const double session_bitrate = arena.bitrate_sum[slot] / segments;
      shard.qoe.add(session_qoe);
      shard.energy_j.add(session_energy);
      shard.bitrate_mbps.add(session_bitrate);
      shard.rebuffer_s.add(arena.rebuffer_s[slot]);
      shard.startup_s.add(arena.startup_s[slot]);
      shard.qoe_sample.add(session_qoe);
      shard.energy_sample.add(session_energy);
      shard.rebuffer_sample.add(arena.rebuffer_s[slot]);
      shard.median_qoe.add(session_qoe);
      shard.median_energy.add(session_energy);
      ++shard.region.sessions;
      --live;
      arena.release(slot);
    }
  }

  /// Drains the remaining event heap into a checkpoint (terminal: the sim
  /// cannot continue after capture).
  FleetRegionCheckpoint capture() {
    FleetRegionCheckpoint ckpt;
    ckpt.region = region;
    ckpt.live = live;
    for (; !heap.empty(); heap.pop()) ckpt.events.push_back(heap.top());
    ckpt.arena = arena;
    ckpt.cell_active = cell_active;
    ckpt.metrics = shard.region;
    shard.aggregators(ckpt, [](const auto& aggregator, auto& state) {
      state = aggregator.state();
    });
    ckpt.shed = shed;
    if (cache) ckpt.cache = cache->export_state();
    return ckpt;
  }

  [[noreturn]] static void reject(const std::string& what) {
    throw std::invalid_argument("resume_fleet: checkpoint " + what);
  }

  /// Reinstates a captured region state. Throws std::invalid_argument,
  /// naming the field, on a checkpoint that does not fit this region (wrong
  /// region, cell count or window, a ragged arena column) or that holds an
  /// index the event loop would dereference out of range.
  void restore(const FleetRegionCheckpoint& ckpt) {
    if (ckpt.region != region) reject("region mismatch");
    if (ckpt.cell_active.size() != cell_count) reject("cell count mismatch");
    const FleetArenaState& a = ckpt.arena;
    if (a.window != arena.window) reject("bandwidth window mismatch");
    const std::size_t slots = a.slots();
    FleetArenaState::columns(a, [&](const char* name, const auto& column,
                                    const auto&, std::size_t per_slot) {
      if (column.size() != slots * per_slot) {
        reject(std::string("arena column ") + name + " is ragged");
      }
    });
    const std::size_t rungs = config.ladder_mbps.size();
    for (std::size_t s = 0; s < slots; ++s) {
      if (a.cell[s] < first_cell || a.cell[s] - first_cell >= cell_count) {
        reject("arena cell outside the region's block");
      }
      if (a.level[s] >= rungs) reject("arena level beyond the ladder");
      if (a.last_level[s] >= rungs) {
        reject("arena last_level beyond the ladder");
      }
      if (a.prev_level[s] < -1 || a.prev_level[s] >= static_cast<int>(rungs)) {
        reject("arena prev_level outside [-1, ladder size)");
      }
    }
    for (const std::uint32_t slot : a.free_slots) {
      if (slot >= slots) reject("free_slots entry beyond the arena");
    }
    for (const Event& e : ckpt.events) {
      if (e.kind > kComplete) reject("event kind outside {0, 1, 2}");
      if (e.kind != kArrive && e.slot >= slots) {
        reject("event slot beyond the arena");
      }
    }
    for (const core::DecisionCacheState::Entry& e : ckpt.cache.entries) {
      if (e.level >= rungs) reject("cache entry level beyond the ladder");
    }

    for (const Event& e : ckpt.events) heap.push(e);
    static_cast<FleetArenaState&>(arena) = a;
    cell_active = ckpt.cell_active;
    live = ckpt.live;
    shard.region = ckpt.metrics;
    shard.aggregators(ckpt, [&](auto& aggregator, const auto& state) {
      // A reservoir reserves its capacity on restore: it must be the config's.
      if constexpr (requires { state.capacity; }) {
        if (state.capacity != config.reservoir_capacity) {
          reject("reservoir capacity mismatch");
        }
      }
      aggregator.restore(state);
    });
    shed = ckpt.shed;
    if (cache) cache->restore_state(ckpt.cache);
  }

  Shard finish() {
    shard.region.median_qoe = shard.median_qoe.value();
    shard.region.median_energy_j = shard.median_energy.value();
    return std::move(shard);
  }
};

/// Shared entry validation (satellite of DESIGN §14: reject malformed
/// configs with std::invalid_argument instead of clamping silently).
/// Returns the region count.
std::size_t validate_fleet_config(const FleetConfig& config) {
  if (config.network.num_cells == 0) {
    throw std::invalid_argument("run_fleet: zero cells");
  }
  if (config.ladder_mbps.empty()) {
    throw std::invalid_argument("run_fleet: empty bitrate ladder");
  }
  if (config.num_sessions == 0 || config.segments_per_session == 0) {
    throw std::invalid_argument("run_fleet: zero sessions or segments");
  }
  if (!(std::isfinite(config.arrival_rate_per_s) &&
        config.arrival_rate_per_s > 0.0)) {
    throw std::invalid_argument(
        "run_fleet: arrival rate must be finite and > 0");
  }
  if (!(std::isfinite(config.segment_duration_s) &&
        config.segment_duration_s > 0.0)) {
    throw std::invalid_argument(
        "run_fleet: segment duration must be finite and > 0");
  }
  for (const double mbps : config.ladder_mbps) {
    if (!(std::isfinite(mbps) && mbps > 0.0)) {
      throw std::invalid_argument(
          "run_fleet: ladder bitrates must be finite and > 0");
    }
  }
  if (config.regions == 0 || config.regions > config.network.num_cells) {
    throw std::invalid_argument(
        "run_fleet: regions must be in [1, num_cells]");
  }
  const FleetResilienceConfig& r = config.resilience;
  if (!(std::isfinite(r.backoff_base_s) && r.backoff_base_s > 0.0) ||
      !(std::isfinite(r.backoff_factor) && r.backoff_factor >= 1.0) ||
      !(std::isfinite(r.backoff_max_s) &&
        r.backoff_max_s >= r.backoff_base_s)) {
    throw std::invalid_argument("run_fleet: malformed backoff ladder");
  }
  if (r.max_retries == 0) {
    throw std::invalid_argument("run_fleet: max_retries must be >= 1");
  }
  if (r.shed_miss_rate_threshold <= 1.0) {
    if (!(r.shed_miss_rate_threshold >= 0.0) || r.shed_miss_window == 0 ||
        !(std::isfinite(r.shed_hold_s) && r.shed_hold_s >= 0.0)) {
      throw std::invalid_argument("run_fleet: malformed miss-rate shed rule");
    }
  }
  if (config.policy == FleetPolicy::kPlanner) {
    if (config.planner_horizon == 0) {
      throw std::invalid_argument("run_fleet: planner horizon must be > 0");
    }
    // Validate the shard cache config up front (width checks live in the
    // DecisionCache ctor) so a bad config throws here, not inside a worker.
    core::DecisionCacheConfig probe = config.planner_cache;
    probe.capacity = 0;
    const core::DecisionCache probe_cache(probe);
    (void)probe_cache;
  }
  return config.regions;
}

/// The common driver: fresh start or checkpoint resume, then the serial
/// region-order merge (bit-identical at any job count).
FleetMetrics run_fleet_impl(const FleetConfig& config,
                            const FleetCheckpoint* checkpoint) {
  const std::size_t regions = validate_fleet_config(config);
  const CellNetwork network(config.network);
  const qoe::QoeModel qoe_model(config.qoe);
  const power::PowerModel power_model(config.power);
  const FleetFaultModel fault_model(config.faults, network.num_cells());
  const FleetFaultModel* faults = fault_model.empty() ? nullptr : &fault_model;

  if (checkpoint != nullptr) {
    if (checkpoint->config_fingerprint != fleet_config_fingerprint(config)) {
      throw std::invalid_argument(
          "resume_fleet: checkpoint fingerprint does not match the config");
    }
    if (checkpoint->regions.size() != regions) {
      throw std::invalid_argument(
          "resume_fleet: checkpoint region count mismatch");
    }
  }

  // Regions are the parallel unit; each is pure in (config, region index,
  // checkpoint region).
  const auto shards = util::parallel_map(
      config.exec.resolved_jobs(), regions, [&](std::size_t region) {
        RegionSim sim(config, network, qoe_model, power_model, faults, region,
                      regions);
        if (checkpoint != nullptr) {
          sim.restore(checkpoint->regions[region]);
        } else {
          sim.seed_arrivals();
        }
        sim.run(std::numeric_limits<double>::infinity());
        return sim.finish();
      });

  // Serial merge in region order: bit-identical at any job count.
  FleetMetrics metrics;
  metrics.qoe_sample = ReservoirSampler(
      config.reservoir_capacity, seed_mix(config.seed, kReservoirLane, -3));
  metrics.energy_sample = ReservoirSampler(
      config.reservoir_capacity, seed_mix(config.seed, kReservoirLane, -4));
  metrics.rebuffer_sample = ReservoirSampler(
      config.reservoir_capacity, seed_mix(config.seed, kReservoirLane, -5));
  metrics.regions.reserve(shards.size());
  for (const Shard& shard : shards) {
    metrics.sessions += shard.region.sessions;
    metrics.events += shard.region.events;
    metrics.requests += shard.region.requests;
    metrics.handoffs += shard.region.handoffs;
    metrics.stall_events += shard.region.stall_events;
    metrics.peak_live_sessions += shard.region.peak_live_sessions;
    metrics.escape_handoffs += shard.region.escape_handoffs;
    metrics.backoff_retries += shard.region.backoff_retries;
    metrics.abandoned_sessions += shard.region.abandoned_sessions;
    metrics.policy_sheds += shard.region.policy_sheds;
    metrics.policy_recoveries += shard.region.policy_recoveries;
    metrics.shed_decisions += shard.region.shed_decisions;
    metrics.degraded_time_s += shard.region.degraded_time_s;
    metrics.wasted_energy_j += shard.region.wasted_energy_j;
    metrics.planner.merge(shard.region.planner);
    metrics.qoe.merge(shard.qoe);
    metrics.energy_j.merge(shard.energy_j);
    metrics.bitrate_mbps.merge(shard.bitrate_mbps);
    metrics.rebuffer_s.merge(shard.rebuffer_s);
    metrics.startup_s.merge(shard.startup_s);
    metrics.qoe_sample.merge(shard.qoe_sample);
    metrics.energy_sample.merge(shard.energy_sample);
    metrics.rebuffer_sample.merge(shard.rebuffer_sample);
    metrics.regions.push_back(shard.region);
  }
  return metrics;
}

}  // namespace

FleetMetrics run_fleet(const FleetConfig& config) {
  return run_fleet_impl(config, nullptr);
}

FleetCheckpoint run_fleet_until(const FleetConfig& config, double t_s) {
  if (!(std::isfinite(t_s) && t_s > 0.0)) {
    throw std::invalid_argument(
        "run_fleet_until: checkpoint time must be finite and > 0");
  }
  const std::size_t regions = validate_fleet_config(config);
  const CellNetwork network(config.network);
  const qoe::QoeModel qoe_model(config.qoe);
  const power::PowerModel power_model(config.power);
  const FleetFaultModel fault_model(config.faults, network.num_cells());
  const FleetFaultModel* faults = fault_model.empty() ? nullptr : &fault_model;

  FleetCheckpoint checkpoint;
  checkpoint.config_fingerprint = fleet_config_fingerprint(config);
  checkpoint.checkpoint_t_s = t_s;
  checkpoint.regions = util::parallel_map(
      config.exec.resolved_jobs(), regions, [&](std::size_t region) {
        RegionSim sim(config, network, qoe_model, power_model, faults, region,
                      regions);
        sim.seed_arrivals();
        sim.run(t_s);
        return sim.capture();
      });
  return checkpoint;
}

FleetMetrics resume_fleet(const FleetConfig& config,
                          const FleetCheckpoint& checkpoint) {
  return run_fleet_impl(config, &checkpoint);
}

}  // namespace eacs::sim
