#pragma once
// Context-quantized decision cache — the planner's fleet-scale memoization
// layer (DESIGN §13).
//
// Planner state across a fleet is massively redundant: a few context classes
// times a few buffer/bandwidth regimes cover almost every decision a
// population of clients ever asks for. A DecisionCache memoizes planner
// decisions keyed on a *canonicalized* snapshot of the planner's inputs:
// (ladder id, quantized buffer bucket, log-bucketed bandwidth estimate,
// vibration + confidence buckets, signal bucket, segments-remaining,
// previous rung, alpha).
//
// The load-bearing rule is canonicalize-then-solve: on a miss the planner is
// evaluated ON the canonicalized representative inputs, never the raw ones.
// Every snapshot that maps to a key therefore produces bit-identically the
// decision a cold solve of that key produces — cache-on vs cache-off (with
// identical quantization) is EXPECT_EQ-certifiable, and eviction can never
// change a decision, only cost a re-solve. Eviction itself is deterministic:
// the table is direct-mapped (slot = hash % capacity), so a colliding insert
// always displaces the same victim regardless of history outside the key
// stream.
//
// Two modes:
//   * exact (default): canonicalization is the identity — keys are the bit
//     patterns of the raw doubles, representatives are the raw values. A hit
//     only ever dedupes bit-identical snapshots, so decisions are unchanged
//     from uncached planning (certified by tests/differential/). This is the
//     rich-engine default.
//   * quantized: inputs are bucketed (linear buckets for buffer / vibration /
//     confidence / signal, logarithmic for bandwidth) and the planner runs on
//     bucket representatives. Decisions may differ from exact planning by a
//     bounded quantization error (EXPERIMENTS.md "Quantization sensitivity");
//     hit rates become fleet-scale. This is the fleet-simulator default.
//
// capacity = 0 is the quantize-only configuration: every lookup misses and
// nothing is stored, i.e. "cache-off on quantized inputs" — the reference
// side of the cache-on/cache-off certification.
//
// Thread safety: none. Shard one cache per deterministic execution unit (one
// per fleet region, one per policy instance in the rich engine) and merge
// counters serially, exactly like every other DESIGN §6 parallel structure.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "eacs/core/task.h"

namespace eacs::core {

/// Cache behaviour. Defaults are the exact-key (identity) mode; the fleet
/// simulator flips `exact` off and keeps the bucket widths, which the
/// EXPERIMENTS.md sensitivity study justifies.
struct DecisionCacheConfig {
  /// Identity canonicalization: keys are raw bit patterns, representatives
  /// are the raw inputs. Hits dedupe identical snapshots only.
  bool exact = true;

  // Quantized-mode bucket widths (used only when !exact; all must be > 0).
  double buffer_bucket_s = 4.0;             ///< linear buffer buckets
  double bandwidth_buckets_per_octave = 2.0;  ///< log2 bandwidth resolution
  double vibration_bucket = 0.75;           ///< linear vibration buckets
  double confidence_bucket = 0.25;          ///< linear confidence buckets
  double signal_bucket_dbm = 8.0;           ///< linear signal buckets
  /// Previous-rung bucket width in rungs (>= 1; 1 = exact). Dense ladders
  /// make neighbouring rungs near-equivalent through the switch-penalty
  /// term, so pairing them (width 2) trades a bounded smoothness error for
  /// a big cut in key cardinality. The representative is the bucket floor
  /// (floor(prev / width) * width), always a valid rung index.
  std::size_t prev_level_bucket = 1;

  /// Direct-mapped slots. 0 = quantize-only: never stores, every lookup is
  /// a miss (the cache-off reference of the certification tests).
  std::size_t capacity = 8192;
};

/// Canonicalized snapshot identity. Field values are bucket indices in
/// quantized mode and raw IEEE-754 bit patterns in exact mode; either way,
/// equal keys imply equal representative inputs and therefore equal
/// decisions.
struct DecisionKey {
  static constexpr std::int64_t kNoPrevLevel = -1;

  std::uint64_t ladder_id = 0;   ///< caller-supplied content/ladder identity
  std::uint64_t alpha_bits = 0;  ///< Eq. 11 alpha, always exact bits
  std::int64_t buffer = 0;
  std::int64_t bandwidth = 0;
  std::int64_t vibration = 0;
  std::int64_t confidence = 0;
  std::int64_t signal = 0;
  std::int64_t remaining = 0;    ///< canonical lookahead (min(horizon, left))
  std::int64_t prev_level = kNoPrevLevel;

  bool operator==(const DecisionKey&) const = default;

  /// 64-bit avalanche mix over the fields, in declaration order.
  std::uint64_t hash() const noexcept;
};

/// Raw planner inputs, before canonicalization. Callers pass the *effective*
/// values the planner would otherwise see (post degraded-context fallbacks)
/// and the canonical lookahead min(horizon, segments left): lookahead is the
/// only way the remaining-segment count reaches a receding-horizon decision.
struct DecisionSnapshot {
  double buffer_s = 0.0;
  double bandwidth_mbps = 0.0;
  double vibration = 0.0;
  double confidence = 1.0;
  double signal_dbm = -90.0;
  std::size_t segments_remaining = 1;
  std::optional<std::size_t> prev_level;
  std::uint64_t ladder_id = 0;
  double alpha = 0.5;
};

/// A canonicalized snapshot: the key plus the representative inputs the
/// planner must be evaluated on. Identical for every snapshot mapping to the
/// same key — the bit-identity recipe. Solvers MUST read every input they
/// use from here (including prev_level), never from the raw snapshot.
struct CanonicalDecision {
  DecisionKey key;
  double buffer_s = 0.0;
  double bandwidth_mbps = 0.0;
  double vibration = 0.0;
  double confidence = 1.0;
  double signal_dbm = -90.0;
  std::optional<std::size_t> prev_level;  ///< bucket-floor representative
};

/// Deterministic cache counters (mirrored into the thread's CostStatsScope
/// when one is installed, so fleet shards can merge them serially).
struct DecisionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  bool operator==(const DecisionCacheStats&) const = default;

  std::uint64_t lookups() const noexcept { return hits + misses; }
  double hit_rate() const noexcept {
    return lookups() > 0 ? static_cast<double>(hits) /
                               static_cast<double>(lookups())
                         : 0.0;
  }
};

/// Serialized contents of a DecisionCache: the occupied slots (with their
/// direct-mapped slot index, so restore reproduces the exact table layout
/// without re-hashing) plus the counters. Exposed for the fleet checkpoint
/// (DESIGN §14); restore_state() on a cache built with the same config makes
/// the resumed shard bit-identical to the uninterrupted one.
struct DecisionCacheState {
  struct Entry {
    std::size_t slot = 0;
    DecisionKey key;
    std::uint32_t level = 0;

    bool operator==(const Entry&) const = default;
  };

  DecisionCacheStats stats;
  std::vector<Entry> entries;

  bool operator==(const DecisionCacheState&) const = default;
};

/// The memoization table. Throws std::invalid_argument on a quantized
/// configuration with a non-positive or non-finite bucket width.
class DecisionCache {
 public:
  explicit DecisionCache(DecisionCacheConfig config = {});

  const DecisionCacheConfig& config() const noexcept { return config_; }

  /// Projects a raw snapshot onto its bucket key and representative inputs:
  /// key_for(snapshot), plus each representative derived from the key's
  /// bucket index. Pure in (config, snapshot); idempotent (canonicalizing a
  /// representative reproduces its own key). Non-finite inputs degrade to
  /// exact-bit keying for that field, so NaN/Inf never alias a finite bucket
  /// in practice.
  CanonicalDecision canonicalize(const DecisionSnapshot& snapshot) const noexcept;

  /// The key alone — the one place the key is computed. Hot paths key a
  /// lookup with this and only pay for representatives (the exp2/midpoint
  /// math) on a miss.
  DecisionKey key_for(const DecisionSnapshot& snapshot) const noexcept;

  /// Lookup; counts exactly one hit or one miss.
  std::optional<std::size_t> find(const DecisionKey& key) noexcept;

  /// Records a hit served by a caller-side L1 (e.g. the fleet arena's
  /// per-session last-key slot) without probing the table. Layered caches
  /// stay inside the counter invariant: hits + misses == consultations.
  void count_external_hit() noexcept;

  /// Stores a decision. Displacing an occupied slot with a different key
  /// counts one eviction. No-op at capacity 0.
  void insert(const DecisionKey& key, std::size_t level);

  /// The memoized-solve composition: find, else solve(canonical) and insert.
  /// `solve` MUST derive its decision from `canonical`'s representatives
  /// only — that is the whole contract.
  template <typename Solver>
  std::size_t level_for(const CanonicalDecision& canonical, Solver&& solve) {
    if (const auto hit = find(canonical.key)) return *hit;
    const std::size_t level = solve(canonical);
    insert(canonical.key, level);
    return level;
  }

  const DecisionCacheStats& stats() const noexcept { return stats_; }
  std::size_t entries() const noexcept { return entries_; }

  /// Snapshot of the occupied slots and counters, in slot order (checkpoint
  /// side).
  DecisionCacheState export_state() const;

  /// Reinstates a previously exported state, replacing current contents and
  /// counters. Throws std::invalid_argument when an entry's slot index is
  /// outside the configured capacity or two entries name the same slot.
  void restore_state(const DecisionCacheState& state);

 private:
  struct Entry {
    DecisionKey key;
    std::uint32_t level = 0;
    bool occupied = false;
  };

  DecisionCacheConfig config_;
  std::vector<Entry> slots_;
  DecisionCacheStats stats_;
  std::size_t entries_ = 0;
};

/// Content identity for cache keys: FNV-1a over the window's task count and
/// every task's duration and candidate sizes (bit patterns). Two windows
/// hash equal only if the planner would price identical downloads — this is
/// what makes exact-key caching safe under VBR manifests, where segment
/// sizes vary along the session.
std::uint64_t hash_task_ladder(std::span<const TaskEnvironment> tasks) noexcept;

}  // namespace eacs::core
