#include "eacs/core/decision_cache.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "eacs/core/cost_stats.h"

namespace eacs::core {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t state, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    state ^= (value >> (8 * i)) & 0xFFULL;
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a(std::uint64_t state, double value) noexcept {
  return fnv1a(state, std::bit_cast<std::uint64_t>(value));
}

std::int64_t exact_bits(double value) noexcept {
  return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value));
}

// Linear bucketing: the key is floor(value / width). Non-finite values fall
// back to exact-bit keying (bit patterns of NaN/Inf land around 2^63, far
// outside any realistic bucket index), so degenerate inputs can't alias a
// finite bucket.
std::int64_t linear_bucket_index(double value, double width) noexcept {
  if (!std::isfinite(value)) return exact_bits(value);
  return static_cast<std::int64_t>(std::floor(value / width));
}

// Logarithmic (octave) bucketing for bandwidth: relative resolution, so
// 0.5 vs 0.6 Mbps distinguish while 40 vs 48 Mbps coalesce. Non-positive
// estimates collapse into one "no throughput" bucket.
std::int64_t log_bucket_index(double value,
                              double buckets_per_octave) noexcept {
  if (!std::isfinite(value)) return exact_bits(value);
  if (value <= 0.0) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(
      std::floor(std::log2(value) * buckets_per_octave));
}

// Representatives, derived from the key's bucket index: the bucket midpoint
// (exp2 of the log midpoint for bandwidth), so every raw value in a bucket
// solves on the same inputs. A non-finite value keys on its own bits and is
// its own representative; a non-positive bandwidth represents as 0.
double linear_representative(double value, std::int64_t bucket,
                             double width) noexcept {
  if (!std::isfinite(value)) return value;
  return (static_cast<double>(bucket) + 0.5) * width;
}

double log_representative(double value, std::int64_t bucket,
                          double buckets_per_octave) noexcept {
  if (!std::isfinite(value)) return value;
  if (value <= 0.0) return 0.0;
  return std::exp2((static_cast<double>(bucket) + 0.5) / buckets_per_octave);
}

void require_positive(double value, const char* name) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    throw std::invalid_argument(std::string("DecisionCacheConfig: ") + name +
                                " must be positive and finite");
  }
}

// Previous-rung bucketing: floor representative so the canonical prev is
// always a real (not interpolated) rung index.
std::int64_t prev_level_bucket_index(std::size_t prev,
                                     std::size_t width) noexcept {
  return static_cast<std::int64_t>(prev / width);
}

std::size_t prev_level_representative(std::size_t prev,
                                      std::size_t width) noexcept {
  return (prev / width) * width;
}

// 64-bit avalanche (the murmur3/splitmix finalizer). Word-at-a-time: the
// hash sits on the per-lookup hot path of the fleet simulator, where a
// byte-wise FNV costs more than the table probe it feeds.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t DecisionKey::hash() const noexcept {
  std::uint64_t h = kFnvOffset;
  h = mix64(h ^ ladder_id);
  h = mix64(h ^ alpha_bits);
  h = mix64(h ^ static_cast<std::uint64_t>(buffer));
  h = mix64(h ^ static_cast<std::uint64_t>(bandwidth));
  h = mix64(h ^ static_cast<std::uint64_t>(vibration));
  h = mix64(h ^ static_cast<std::uint64_t>(confidence));
  h = mix64(h ^ static_cast<std::uint64_t>(signal));
  h = mix64(h ^ static_cast<std::uint64_t>(remaining));
  h = mix64(h ^ static_cast<std::uint64_t>(prev_level));
  return h;
}

DecisionCache::DecisionCache(DecisionCacheConfig config)
    : config_(config) {
  if (!config_.exact) {
    require_positive(config_.buffer_bucket_s, "buffer_bucket_s");
    require_positive(config_.bandwidth_buckets_per_octave,
                     "bandwidth_buckets_per_octave");
    require_positive(config_.vibration_bucket, "vibration_bucket");
    require_positive(config_.confidence_bucket, "confidence_bucket");
    require_positive(config_.signal_bucket_dbm, "signal_bucket_dbm");
    if (config_.prev_level_bucket == 0) {
      throw std::invalid_argument(
          "DecisionCacheConfig: prev_level_bucket must be >= 1");
    }
  }
  slots_.resize(config_.capacity);
}

CanonicalDecision DecisionCache::canonicalize(
    const DecisionSnapshot& snapshot) const noexcept {
  CanonicalDecision out;
  out.key = key_for(snapshot);
  if (snapshot.prev_level) {
    out.prev_level = prev_level_representative(
        *snapshot.prev_level, config_.exact ? 1 : config_.prev_level_bucket);
  }
  if (config_.exact) {
    out.buffer_s = snapshot.buffer_s;
    out.bandwidth_mbps = snapshot.bandwidth_mbps;
    out.vibration = snapshot.vibration;
    out.confidence = snapshot.confidence;
    out.signal_dbm = snapshot.signal_dbm;
    return out;
  }
  out.buffer_s = linear_representative(snapshot.buffer_s, out.key.buffer,
                                       config_.buffer_bucket_s);
  out.bandwidth_mbps =
      log_representative(snapshot.bandwidth_mbps, out.key.bandwidth,
                         config_.bandwidth_buckets_per_octave);
  out.vibration = linear_representative(snapshot.vibration, out.key.vibration,
                                        config_.vibration_bucket);
  out.confidence = linear_representative(
      snapshot.confidence, out.key.confidence, config_.confidence_bucket);
  out.signal_dbm = linear_representative(snapshot.signal_dbm, out.key.signal,
                                         config_.signal_bucket_dbm);
  return out;
}

DecisionKey DecisionCache::key_for(
    const DecisionSnapshot& snapshot) const noexcept {
  DecisionKey key;
  key.ladder_id = snapshot.ladder_id;
  key.alpha_bits = std::bit_cast<std::uint64_t>(snapshot.alpha);
  key.remaining = static_cast<std::int64_t>(snapshot.segments_remaining);
  key.prev_level =
      snapshot.prev_level
          ? prev_level_bucket_index(*snapshot.prev_level,
                                    config_.exact ? 1
                                                  : config_.prev_level_bucket)
          : DecisionKey::kNoPrevLevel;
  if (config_.exact) {
    key.buffer = exact_bits(snapshot.buffer_s);
    key.bandwidth = exact_bits(snapshot.bandwidth_mbps);
    key.vibration = exact_bits(snapshot.vibration);
    key.confidence = exact_bits(snapshot.confidence);
    key.signal = exact_bits(snapshot.signal_dbm);
    return key;
  }
  key.buffer = linear_bucket_index(snapshot.buffer_s, config_.buffer_bucket_s);
  key.bandwidth = log_bucket_index(snapshot.bandwidth_mbps,
                                   config_.bandwidth_buckets_per_octave);
  key.vibration =
      linear_bucket_index(snapshot.vibration, config_.vibration_bucket);
  key.confidence =
      linear_bucket_index(snapshot.confidence, config_.confidence_bucket);
  key.signal =
      linear_bucket_index(snapshot.signal_dbm, config_.signal_bucket_dbm);
  return key;
}

std::optional<std::size_t> DecisionCache::find(const DecisionKey& key) noexcept {
  if (!slots_.empty()) {
    const Entry& entry = slots_[key.hash() % slots_.size()];
    if (entry.occupied && entry.key == key) {
      ++stats_.hits;
      if (CostStats* scope = CostStatsScope::current()) ++scope->cache_hits;
      return entry.level;
    }
  }
  ++stats_.misses;
  if (CostStats* scope = CostStatsScope::current()) ++scope->cache_misses;
  return std::nullopt;
}

void DecisionCache::count_external_hit() noexcept {
  ++stats_.hits;
  if (CostStats* scope = CostStatsScope::current()) ++scope->cache_hits;
}

void DecisionCache::insert(const DecisionKey& key, std::size_t level) {
  if (slots_.empty()) return;
  Entry& entry = slots_[key.hash() % slots_.size()];
  if (entry.occupied && !(entry.key == key)) {
    ++stats_.evictions;
    if (CostStats* scope = CostStatsScope::current()) ++scope->cache_evictions;
  }
  if (!entry.occupied) ++entries_;
  entry.key = key;
  entry.level = static_cast<std::uint32_t>(level);
  entry.occupied = true;
}

DecisionCacheState DecisionCache::export_state() const {
  DecisionCacheState state;
  state.stats = stats_;
  state.entries.reserve(entries_);
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    const Entry& entry = slots_[slot];
    if (entry.occupied) {
      state.entries.push_back({slot, entry.key, entry.level});
    }
  }
  return state;
}

void DecisionCache::restore_state(const DecisionCacheState& state) {
  for (const DecisionCacheState::Entry& entry : state.entries) {
    if (entry.slot >= slots_.size()) {
      throw std::invalid_argument(
          "DecisionCache::restore_state: slot index outside capacity");
    }
  }
  for (Entry& entry : slots_) entry = Entry{};
  entries_ = 0;
  for (const DecisionCacheState::Entry& entry : state.entries) {
    Entry& target = slots_[entry.slot];
    if (target.occupied) {
      throw std::invalid_argument(
          "DecisionCache::restore_state: duplicate slot index");
    }
    target.key = entry.key;
    target.level = entry.level;
    target.occupied = true;
    ++entries_;
  }
  stats_ = state.stats;
}

std::uint64_t hash_task_ladder(
    std::span<const TaskEnvironment> tasks) noexcept {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(tasks.size()));
  for (const TaskEnvironment& task : tasks) {
    h = fnv1a(h, task.duration_s);
    h = fnv1a(h, static_cast<std::uint64_t>(task.size_megabits.size()));
    for (double size : task.size_megabits) h = fnv1a(h, size);
  }
  return h;
}

}  // namespace eacs::core
