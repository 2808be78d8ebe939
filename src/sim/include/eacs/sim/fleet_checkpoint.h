#pragma once
// Deterministic fleet checkpoint/resume (DESIGN §14).
//
// A FleetCheckpoint is a full bit-exact snapshot of a fleet run cut at sim
// time T: every region's pending event set, SoA session arena, per-cell
// in-flight counts, streaming aggregator internals (Welford moments, P^2
// markers, reservoir contents *and* Rng engine state), overload-shed state,
// and DecisionCache shard contents. Because every event (t, session, kind)
// is unique — each live session has exactly one pending event — the heap pop
// order is a strict total order, so re-pushing the captured event multiset
// reproduces the remaining pop sequence exactly. The certification is
// EXPECT_EQ: run_fleet_until(T) + resume_fleet == run_fleet, bitwise, at any
// jobs count, with or without faults (tests/differential/).
//
// The fault overlay itself is never serialized: it is a pure function of the
// config (fleet_faults.h), so resume just rebuilds it. A config fingerprint
// (FNV-1a over every result-shaping field, exec.jobs excluded) guards
// against resuming under a different config — resume_fleet throws rather
// than silently diverging.
//
// The sidecar format is a versioned whitespace-separated token stream with
// doubles written as u64 bit patterns (std::bit_cast): exact, portable, and
// diffable. save/load round-trips bit-identically by construction.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eacs/sim/fleet.h"

namespace eacs::sim {

/// One pending event; also the element of the region's event heap. Every
/// live session has exactly one pending event (arrive -> request -> complete
/// -> request -> ...), so events carry their slot index and never go stale.
struct FleetEventState {
  double t_s = 0.0;
  int session = 0;
  std::uint8_t kind = 0;  // 0 = arrive, 1 = request, 2 = complete
  std::uint32_t slot = 0;  ///< arena slot; unused by arrivals

  bool operator==(const FleetEventState&) const = default;
};

/// The SoA arena of live-session state; fleet.cpp's SessionArena derives
/// from it, so a checkpoint copies it whole. Every column is indexed by slot
/// and sized to the live high-water mark: finished sessions return their
/// slot to `free_slots`. Adding a column takes its declaration here and its
/// entry in columns(), which acquire, restore and the sidecar codec walk.
struct FleetArenaState {
  std::size_t window = 1;
  std::vector<int> session;
  std::vector<std::size_t> cell;
  std::vector<std::size_t> next_segment;
  std::vector<double> arrival_s;
  std::vector<double> last_event_s;  ///< playback drained up to here
  std::vector<double> buffer_s;
  std::vector<std::uint8_t> playing;
  std::vector<double> startup_s;       ///< set when playback starts
  std::vector<double> rebuffer_s;      ///< total stall so far
  std::vector<double> seg_rebuffer_s;  ///< stall since the current request
  std::vector<double> qoe_sum;
  std::vector<double> energy_j;
  std::vector<double> bitrate_sum;
  std::vector<double> prev_bitrate;
  std::vector<int> prev_level;  ///< last completed rung (-1 before any)
  // In-flight transfer (valid between request and complete).
  std::vector<double> request_s;
  std::vector<double> size_mb;
  std::vector<double> level_bitrate;
  std::vector<std::uint32_t> level;  ///< in-flight rung index
  // Planner L1: the slot's last canonical decision. Steady-state sessions
  // canonicalize consecutive requests to the same key, and decisions are a
  // pure function of the key, so an equal key reuses the level without
  // probing the shared shard table (a guaranteed cold-cache access at fleet
  // capacities). Counted as cache hits via count_external_hit().
  std::vector<core::DecisionKey> last_key;
  std::vector<std::uint32_t> last_level;
  std::vector<std::uint8_t> has_last;
  /// Consecutive failed request attempts (dead region): drives the
  /// exponential backoff ladder; reset on every successful request.
  std::vector<std::uint32_t> retries;
  std::vector<double> throughputs;  ///< [slot * window + i]
  std::vector<std::size_t> seen;  ///< samples observed (ring write cursor)

  std::vector<std::uint32_t> free_slots;

  /// Fresh-value marker for a column that a reused slot keeps as the
  /// previous session left it (has_last gates the planner L1); a new slot
  /// value-initializes it.
  struct Stale {};

  /// The one list of per-slot columns, in sidecar order. Calls
  /// f(name, column, fresh, per_slot) for each: a slot owns `per_slot`
  /// elements of the column, and acquire sets them to `fresh` from the
  /// arriving session's id, start cell and arrival time.
  template <typename Self, typename F>
  static void columns(Self& a, F&& f, int id = 0, std::size_t start_cell = 0,
                      double now = 0.0) {
    f("session", a.session, id, 1);
    f("cell", a.cell, start_cell, 1);
    f("next_segment", a.next_segment, std::size_t{0}, 1);
    f("arrival_s", a.arrival_s, now, 1);
    f("last_event_s", a.last_event_s, now, 1);
    f("buffer_s", a.buffer_s, 0.0, 1);
    f("playing", a.playing, std::uint8_t{0}, 1);
    f("startup_s", a.startup_s, 0.0, 1);
    f("rebuffer_s", a.rebuffer_s, 0.0, 1);
    f("seg_rebuffer_s", a.seg_rebuffer_s, 0.0, 1);
    f("qoe_sum", a.qoe_sum, 0.0, 1);
    f("energy_j", a.energy_j, 0.0, 1);
    f("bitrate_sum", a.bitrate_sum, 0.0, 1);
    f("prev_bitrate", a.prev_bitrate, 0.0, 1);
    f("prev_level", a.prev_level, -1, 1);
    f("request_s", a.request_s, 0.0, 1);
    f("size_mb", a.size_mb, 0.0, 1);
    f("level_bitrate", a.level_bitrate, 0.0, 1);
    f("level", a.level, std::uint32_t{0}, 1);
    f("last_key", a.last_key, Stale{}, 1);
    f("last_level", a.last_level, Stale{}, 1);
    f("has_last", a.has_last, std::uint8_t{0}, 1);
    f("retries", a.retries, std::uint32_t{0}, 1);
    f("throughputs", a.throughputs, 0.0, a.window);
    f("seen", a.seen, std::size_t{0}, 1);
  }

  std::size_t slots() const noexcept { return session.size(); }

  bool operator==(const FleetArenaState&) const = default;
};

/// Overload-shed detector state (the degradation ladder's planner->
/// throughput triggers).
struct FleetShedState {
  bool live_shed = false;
  bool miss_shed = false;
  double shed_until_s = 0.0;
  std::uint64_t window_consults = 0;
  std::uint64_t window_misses = 0;

  bool operator==(const FleetShedState&) const = default;
};

/// Everything one region needs to continue exactly where the cut stopped.
struct FleetRegionCheckpoint {
  std::size_t region = 0;
  std::size_t live = 0;
  std::vector<FleetEventState> events;  ///< pending events, in pop order
  FleetArenaState arena;
  std::vector<std::size_t> cell_active;  ///< in-flight downloads per cell
  FleetRegionMetrics metrics;  ///< counters so far (medians still zero)
  RunningStatsState qoe, energy_j, bitrate_mbps, rebuffer_s, startup_s;
  ReservoirSamplerState qoe_sample, energy_sample, rebuffer_sample;
  P2QuantileState median_qoe, median_energy;
  FleetShedState shed;
  core::DecisionCacheState cache;  ///< empty under the throughput policy

  bool operator==(const FleetRegionCheckpoint&) const = default;
};

/// A fleet run cut at time T.
struct FleetCheckpoint {
  std::uint64_t config_fingerprint = 0;
  double checkpoint_t_s = 0.0;
  std::vector<FleetRegionCheckpoint> regions;

  bool operator==(const FleetCheckpoint&) const = default;
};

/// FNV-1a over every FleetConfig field that shapes results (network, content,
/// player, policy, cache, faults, resilience, qoe/power params, seed —
/// everything except exec.jobs, which never changes results under the §6
/// contract).
std::uint64_t fleet_config_fingerprint(const FleetConfig& config);

/// Runs the fleet up to (exclusive) sim time `t_s` and captures the full
/// state. Same validation as run_fleet; additionally throws
/// std::invalid_argument on a non-finite or non-positive `t_s`.
FleetCheckpoint run_fleet_until(const FleetConfig& config, double t_s);

/// Continues a checkpointed run to completion. Bit-identical to the
/// uninterrupted run_fleet(config) at any exec.jobs. Throws
/// std::invalid_argument, naming the field, when the checkpoint's
/// fingerprint does not match `config`, its region count, cell count,
/// bandwidth window or reservoir capacity is inconsistent, an arena column
/// is ragged, or an index the event loop dereferences is out of range: an
/// event kind outside {0, 1, 2}, an event or free-list slot beyond the
/// arena, a session's cell outside its region, or a rung (level,
/// last_level, prev_level, cached decision) outside the ladder.
FleetMetrics resume_fleet(const FleetConfig& config,
                          const FleetCheckpoint& checkpoint);

/// Writes / reads the sidecar file. save throws std::runtime_error when the
/// file cannot be written; load throws std::runtime_error on a missing file,
/// a bad magic/version, a truncated or malformed token stream, trailing
/// tokens, a length token longer than the bytes left could hold, or an
/// integer token that does not fit its field (bools take only 0 and 1).
void save_fleet_checkpoint(const FleetCheckpoint& checkpoint,
                           const std::string& path);
FleetCheckpoint load_fleet_checkpoint(const std::string& path);

}  // namespace eacs::sim
