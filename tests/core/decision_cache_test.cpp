// DecisionCache unit semantics: canonicalization math (linear / log /
// prev-rung buckets, exact-bit degradation for non-finite inputs),
// deterministic direct-mapped storage, exact hit/miss/eviction counting,
// CostStatsScope mirroring, and config validation. The cross-cutting
// claim — cache-on decisions bitwise equal cache-off decisions on the same
// quantized inputs — lives in tests/property/decision_cache_properties_test.
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "eacs/core/cost_stats.h"
#include "eacs/core/decision_cache.h"

namespace eacs::core {
namespace {

DecisionCacheConfig quantized_config(std::size_t capacity = 64) {
  DecisionCacheConfig config;
  config.exact = false;
  config.capacity = capacity;
  return config;
}

DecisionSnapshot sample_snapshot() {
  DecisionSnapshot snapshot;
  snapshot.buffer_s = 17.3;
  snapshot.bandwidth_mbps = 2.9;
  snapshot.vibration = 0.4;
  snapshot.confidence = 0.8;
  snapshot.signal_dbm = -97.0;
  snapshot.segments_remaining = 5;
  snapshot.prev_level = 3;
  snapshot.ladder_id = 42;
  snapshot.alpha = 0.5;
  return snapshot;
}

TEST(DecisionCacheConfigTest, RejectsNonPositiveBucketWidths) {
  for (auto mutate : {
           +[](DecisionCacheConfig& c) { c.buffer_bucket_s = 0.0; },
           +[](DecisionCacheConfig& c) { c.bandwidth_buckets_per_octave = -1.0; },
           +[](DecisionCacheConfig& c) { c.vibration_bucket = 0.0; },
           +[](DecisionCacheConfig& c) {
             c.confidence_bucket = std::numeric_limits<double>::quiet_NaN();
           },
           +[](DecisionCacheConfig& c) {
             c.signal_bucket_dbm = std::numeric_limits<double>::infinity();
           },
           +[](DecisionCacheConfig& c) { c.prev_level_bucket = 0; },
       }) {
    DecisionCacheConfig config = quantized_config();
    mutate(config);
    EXPECT_THROW(DecisionCache{config}, std::invalid_argument);
  }
  // The same degenerate widths are legal in exact mode: identity
  // canonicalization never reads them.
  DecisionCacheConfig exact;
  exact.buffer_bucket_s = 0.0;
  exact.prev_level_bucket = 0;
  EXPECT_NO_THROW(DecisionCache{exact});
}

TEST(DecisionCacheTest, ExactModeIsIdentityCanonicalization) {
  DecisionCache cache;  // default config: exact
  const DecisionSnapshot snapshot = sample_snapshot();
  const CanonicalDecision canonical = cache.canonicalize(snapshot);
  EXPECT_EQ(canonical.buffer_s, snapshot.buffer_s);
  EXPECT_EQ(canonical.bandwidth_mbps, snapshot.bandwidth_mbps);
  EXPECT_EQ(canonical.vibration, snapshot.vibration);
  EXPECT_EQ(canonical.confidence, snapshot.confidence);
  EXPECT_EQ(canonical.signal_dbm, snapshot.signal_dbm);
  EXPECT_EQ(canonical.prev_level, snapshot.prev_level);
  // Bitwise-distinct inputs get distinct keys.
  DecisionSnapshot nudged = snapshot;
  nudged.buffer_s = std::nextafter(snapshot.buffer_s, 1e9);
  EXPECT_FALSE(cache.canonicalize(nudged).key == canonical.key);
}

TEST(DecisionCacheTest, QuantizedBucketsUseMidpointRepresentatives) {
  const DecisionCacheConfig config = quantized_config();
  DecisionCache cache(config);
  DecisionSnapshot snapshot = sample_snapshot();
  const CanonicalDecision canonical = cache.canonicalize(snapshot);
  // Linear buckets: index = floor(v / w), representative = midpoint.
  EXPECT_EQ(canonical.key.buffer,
            static_cast<std::int64_t>(
                std::floor(snapshot.buffer_s / config.buffer_bucket_s)));
  EXPECT_DOUBLE_EQ(canonical.buffer_s,
                   (std::floor(snapshot.buffer_s / config.buffer_bucket_s) +
                    0.5) *
                       config.buffer_bucket_s);
  // Log buckets: index = floor(log2(v) * bpo), representative is the
  // geometric bucket centre.
  EXPECT_EQ(canonical.key.bandwidth,
            static_cast<std::int64_t>(
                std::floor(std::log2(snapshot.bandwidth_mbps) *
                           config.bandwidth_buckets_per_octave)));
  EXPECT_GT(canonical.bandwidth_mbps, 0.0);
  // Every raw value in a bucket shares the representative.
  DecisionSnapshot sibling = snapshot;
  sibling.buffer_s += 0.5 * config.buffer_bucket_s;  // same 4s bucket
  const CanonicalDecision sib = cache.canonicalize(sibling);
  EXPECT_EQ(sib.key, canonical.key);
  EXPECT_EQ(sib.buffer_s, canonical.buffer_s);
}

TEST(DecisionCacheTest, CanonicalizationIsIdempotent) {
  DecisionCache cache(quantized_config());
  const CanonicalDecision once = cache.canonicalize(sample_snapshot());
  DecisionSnapshot representative = sample_snapshot();
  representative.buffer_s = once.buffer_s;
  representative.bandwidth_mbps = once.bandwidth_mbps;
  representative.vibration = once.vibration;
  representative.confidence = once.confidence;
  representative.signal_dbm = once.signal_dbm;
  representative.prev_level = once.prev_level;
  const CanonicalDecision twice = cache.canonicalize(representative);
  EXPECT_EQ(twice.key, once.key);
  EXPECT_EQ(twice.buffer_s, once.buffer_s);
  EXPECT_EQ(twice.bandwidth_mbps, once.bandwidth_mbps);
}

TEST(DecisionCacheTest, KeyForMatchesCanonicalizeBitwise) {
  for (const bool exact : {true, false}) {
    DecisionCacheConfig config = quantized_config();
    config.exact = exact;
    config.prev_level_bucket = 2;
    DecisionCache cache(config);
    DecisionSnapshot snapshot = sample_snapshot();
    EXPECT_EQ(cache.key_for(snapshot), cache.canonicalize(snapshot).key);
    snapshot.bandwidth_mbps = 0.0;  // "no throughput" sentinel bucket
    snapshot.prev_level.reset();
    EXPECT_EQ(cache.key_for(snapshot), cache.canonicalize(snapshot).key);
    snapshot.signal_dbm = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(cache.key_for(snapshot), cache.canonicalize(snapshot).key);
  }
}

TEST(DecisionCacheTest, PrevLevelBucketsPairRungsWithFloorRepresentative) {
  DecisionCacheConfig config = quantized_config();
  config.prev_level_bucket = 2;
  DecisionCache cache(config);
  DecisionSnapshot snapshot = sample_snapshot();
  snapshot.prev_level = 7;
  const CanonicalDecision odd = cache.canonicalize(snapshot);
  ASSERT_TRUE(odd.prev_level.has_value());
  EXPECT_EQ(*odd.prev_level, 6u);  // floor to a real rung, never interpolate
  snapshot.prev_level = 6;
  EXPECT_EQ(cache.canonicalize(snapshot).key, odd.key);
  snapshot.prev_level = 5;
  EXPECT_FALSE(cache.canonicalize(snapshot).key == odd.key);
  // No previous rung stays its own key, distinct from any real rung.
  snapshot.prev_level.reset();
  const CanonicalDecision none = cache.canonicalize(snapshot);
  EXPECT_EQ(none.key.prev_level, DecisionKey::kNoPrevLevel);
  EXPECT_FALSE(none.prev_level.has_value());
}

TEST(DecisionCacheTest, NonFiniteInputsDegradeToExactBitKeys) {
  DecisionCache cache(quantized_config());
  DecisionSnapshot nan_snapshot = sample_snapshot();
  nan_snapshot.bandwidth_mbps = std::numeric_limits<double>::quiet_NaN();
  DecisionSnapshot inf_snapshot = sample_snapshot();
  inf_snapshot.bandwidth_mbps = std::numeric_limits<double>::infinity();
  const CanonicalDecision nan_c = cache.canonicalize(nan_snapshot);
  const CanonicalDecision inf_c = cache.canonicalize(inf_snapshot);
  EXPECT_FALSE(nan_c.key == inf_c.key);
  EXPECT_TRUE(std::isnan(nan_c.bandwidth_mbps));
  EXPECT_TRUE(std::isinf(inf_c.bandwidth_mbps));
  // Negative estimates collapse into the single "no throughput" bucket.
  DecisionSnapshot zero = sample_snapshot();
  zero.bandwidth_mbps = 0.0;
  DecisionSnapshot negative = sample_snapshot();
  negative.bandwidth_mbps = -3.0;
  EXPECT_EQ(cache.canonicalize(zero).key, cache.canonicalize(negative).key);
  EXPECT_EQ(cache.canonicalize(negative).bandwidth_mbps, 0.0);
}

TEST(DecisionCacheTest, CountsHitsMissesAndServesStoredLevel) {
  DecisionCache cache(quantized_config());
  const CanonicalDecision canonical = cache.canonicalize(sample_snapshot());
  EXPECT_EQ(cache.find(canonical.key), std::nullopt);
  cache.insert(canonical.key, 4);
  const auto hit = cache.find(canonical.key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 4u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().lookups(), 2u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  EXPECT_EQ(cache.entries(), 1u);

  int solves = 0;
  const auto level = cache.level_for(canonical, [&](const CanonicalDecision&) {
    ++solves;
    return std::size_t{9};
  });
  EXPECT_EQ(level, 4u);  // served from cache, solver not consulted
  EXPECT_EQ(solves, 0);
}

TEST(DecisionCacheTest, ExternalHitsCountAsCacheHits) {
  CostStats stats;
  DecisionCache cache(quantized_config());
  {
    CostStatsScope scope(stats);
    cache.count_external_hit();
    cache.count_external_hit();
  }
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(DecisionCacheTest, CapacityZeroNeverStores) {
  DecisionCache cache(quantized_config(0));
  const CanonicalDecision canonical = cache.canonicalize(sample_snapshot());
  int solves = 0;
  for (int i = 0; i < 3; ++i) {
    const auto level =
        cache.level_for(canonical, [&](const CanonicalDecision&) {
          ++solves;
          return std::size_t{2};
        });
    EXPECT_EQ(level, 2u);
  }
  EXPECT_EQ(solves, 3);  // every lookup misses, nothing is ever stored
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(DecisionCacheTest, CapacityOneThrashesDeterministically) {
  // A 1-slot direct map: alternating keys displace each other every insert,
  // and the eviction count is exact — one per displacement, none for
  // overwriting the same key.
  DecisionCache cache(quantized_config(1));
  DecisionSnapshot a = sample_snapshot();
  DecisionSnapshot b = sample_snapshot();
  b.buffer_s += 10.0 * cache.config().buffer_bucket_s;  // different bucket
  const DecisionKey key_a = cache.canonicalize(a).key;
  const DecisionKey key_b = cache.canonicalize(b).key;
  ASSERT_FALSE(key_a == key_b);

  cache.insert(key_a, 1);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(key_a, 1);  // same key: overwrite, not an eviction
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(key_b, 2);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(key_a), std::nullopt);  // displaced
  cache.insert(key_a, 1);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.entries(), 1u);  // entries counts occupancy, not history
}

TEST(DecisionCacheTest, MirrorsCountersIntoCostStatsScope) {
  CostStats stats;
  DecisionCache cache(quantized_config(1));
  const DecisionKey key_a = cache.canonicalize(sample_snapshot()).key;
  DecisionSnapshot other = sample_snapshot();
  other.signal_dbm -= 100.0;
  const DecisionKey key_b = cache.canonicalize(other).key;
  {
    CostStatsScope scope(stats);
    cache.find(key_a);      // miss
    cache.insert(key_a, 0);
    cache.find(key_a);      // hit
    cache.insert(key_b, 1);  // eviction
  }
  cache.find(key_b);  // outside the scope: cache stats only
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DecisionCacheTest, TaskLadderHashSeparatesContentIdentities) {
  TaskEnvironment task;
  task.duration_s = 2.0;
  task.size_megabits = {1.0, 2.0, 4.0};
  TaskEnvironment other = task;
  other.size_megabits[2] = 4.5;
  const TaskEnvironment one_task[] = {task};
  const TaskEnvironment two_tasks[] = {task, task};
  const TaskEnvironment changed[] = {other};
  EXPECT_EQ(hash_task_ladder(one_task), hash_task_ladder(one_task));
  EXPECT_NE(hash_task_ladder(one_task), hash_task_ladder(two_tasks));
  EXPECT_NE(hash_task_ladder(one_task), hash_task_ladder(changed));
  // Context fields are NOT content: they enter the key through their own
  // dimensions, so the ladder hash must ignore them.
  TaskEnvironment noisy = task;
  noisy.vibration = 3.0;
  noisy.signal_dbm = -50.0;
  noisy.bandwidth_mbps = 9.0;
  const TaskEnvironment noisy_window[] = {noisy};
  EXPECT_EQ(hash_task_ladder(one_task), hash_task_ladder(noisy_window));
}

}  // namespace
}  // namespace eacs::core
