// Multi-source CDN delivery unit tests: the certified no-op contract of the
// default spec, each server fault family, per-source determinism /
// decorrelation, the circuit-breaker state machine and the source selector.

#include "eacs/net/segment_source.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace eacs::net {
namespace {

trace::TimeSeries constant_rate(double mbps, double duration = 200.0) {
  trace::TimeSeries series;
  series.append(0.0, mbps);
  series.append(duration, mbps);
  return series;
}

TEST(CdnFaultSpecTest, DefaultSpecInjectsNothing) {
  const CdnFaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  CdnFaultSpec outage;
  outage.outage_rate_per_min = 0.5;
  EXPECT_TRUE(outage.enabled());
  CdnFaultSpec scripted;
  scripted.outages = {{1.0, 2.0}};
  EXPECT_TRUE(scripted.enabled());
  CdnFaultSpec slow;
  slow.slow_start_prob = 0.1;
  EXPECT_TRUE(slow.enabled());
}

TEST(SegmentSourceTest, TrivialSourceIsACertifiedNoOp) {
  const auto trace = constant_rate(8.0);
  const SegmentSource source(trace, CdnSourceConfig{});
  EXPECT_TRUE(source.trivial());
  EXPECT_TRUE(source.outage_schedule().empty());
  EXPECT_TRUE(source.error_episodes().empty());

  // The effective trace is the session trace itself, sample for sample.
  const auto& effective = source.downloader().trace();
  ASSERT_EQ(effective.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(effective.samples()[i].t_s, trace.samples()[i].t_s);
    EXPECT_EQ(effective.samples()[i].value, trace.samples()[i].value);
  }

  // Every attempt is a clean transfer bit-identical to the plain downloader.
  const SegmentDownloader plain(trace);
  for (std::size_t segment = 0; segment < 5; ++segment) {
    const auto outcome = source.attempt(segment, 0, 1.5, 16.0);
    const auto reference = plain.download(1.5, 16.0);
    EXPECT_EQ(outcome.kind, CdnAttemptClass::kOk);
    EXPECT_FALSE(outcome.failed);
    EXPECT_EQ(outcome.result.end_s, reference.end_s);
    EXPECT_EQ(outcome.result.mean_throughput_mbps,
              reference.mean_throughput_mbps);
  }
  EXPECT_EQ(source.rescue(2.0, 8.0).end_s, plain.download(2.0, 8.0).end_s);
}

TEST(SegmentSourceTest, CapacityScaleAndRttShapeAttempts) {
  const auto trace = constant_rate(8.0);
  CdnSourceConfig config;
  config.throughput_scale = 0.5;
  config.base_rtt_s = 0.1;
  const SegmentSource source(trace, config);
  EXPECT_FALSE(source.trivial());

  // 16 megabits at 4 Mbps effective = 4 s, plus one RTT.
  const auto outcome = source.attempt(0, 0, 0.0, 16.0);
  EXPECT_EQ(outcome.kind, CdnAttemptClass::kOk);
  EXPECT_NEAR(outcome.result.end_s, 4.1, 1e-9);
  EXPECT_NEAR(source.megabits_over(0.0, 2.0), 8.0, 1e-9);
}

TEST(SegmentSourceTest, ScriptedOutageZeroesTheEffectiveTrace) {
  const auto trace = constant_rate(8.0);
  CdnSourceConfig config;
  config.faults.outages = {{10.0, 20.0}};
  const SegmentSource source(trace, config);

  EXPECT_FALSE(source.in_outage(9.999));
  EXPECT_TRUE(source.in_outage(10.0));
  EXPECT_TRUE(source.in_outage(19.999));
  EXPECT_FALSE(source.in_outage(20.0));
  EXPECT_NEAR(source.megabits_over(10.0, 20.0), 0.0, 1e-9);

  // An attempt started inside the window only completes after it ends.
  const auto outcome = source.attempt(0, 0, 12.0, 8.0);
  EXPECT_EQ(outcome.kind, CdnAttemptClass::kOk);
  EXPECT_GT(outcome.result.end_s, 20.0);
}

TEST(SegmentSourceTest, HttpErrorDiesAfterOneRttWithNoPayload) {
  const auto trace = constant_rate(8.0);
  CdnSourceConfig config;
  config.faults.error_prob = 1.0;
  const SegmentSource source(trace, config);

  const auto outcome = source.attempt(3, 1, 5.0, 16.0);
  EXPECT_EQ(outcome.kind, CdnAttemptClass::kHttpError);
  EXPECT_TRUE(outcome.failed);
  EXPECT_DOUBLE_EQ(outcome.fail_fraction, 0.0);
  EXPECT_GT(outcome.fail_at_s, 5.0);
  EXPECT_LT(outcome.fail_at_s, 5.2);  // one (floored) RTT, not a transfer
}

TEST(SegmentSourceTest, ErrorEpisodesSpikeTheErrorProbability) {
  const auto trace = constant_rate(8.0, 600.0);
  CdnSourceConfig config;
  config.faults.error_prob = 0.05;
  config.faults.error_rate_per_min = 3.0;
  config.faults.error_episode_mean_s = 15.0;
  config.faults.seed = 77;
  const SegmentSource source(trace, config);

  ASSERT_FALSE(source.error_episodes().empty());
  const auto& episode = source.error_episodes().front();
  EXPECT_DOUBLE_EQ(source.error_probability(episode.start_s),
                   config.faults.episode_error_prob);
  if (episode.start_s > 0.5) {
    EXPECT_DOUBLE_EQ(source.error_probability(episode.start_s - 0.5), 0.05);
  }
  // The probability is clamped below certainty so retries can escape.
  CdnSourceConfig all_errors;
  all_errors.faults.error_prob = 1.0;
  const SegmentSource clamped(trace, all_errors);
  EXPECT_LE(clamped.error_probability(0.0), 0.95);
}

TEST(SegmentSourceTest, TruncatedPayloadFailsPartWay) {
  const auto trace = constant_rate(8.0);
  CdnSourceConfig config;
  config.faults.truncate_prob = 1.0;
  const SegmentSource source(trace, config);

  const auto outcome = source.attempt(0, 0, 0.0, 16.0);
  EXPECT_EQ(outcome.kind, CdnAttemptClass::kTruncated);
  EXPECT_TRUE(outcome.failed);
  EXPECT_GT(outcome.fail_fraction, 0.0);
  EXPECT_LT(outcome.fail_fraction, 1.0);
  EXPECT_GT(outcome.fail_at_s, 0.0);
  EXPECT_LE(outcome.fail_at_s, outcome.result.end_s);
}

TEST(SegmentSourceTest, CorruptedPayloadWastesEveryByte) {
  const auto trace = constant_rate(8.0);
  CdnSourceConfig config;
  config.faults.corrupt_prob = 1.0;
  const SegmentSource source(trace, config);

  const auto outcome = source.attempt(0, 0, 0.0, 16.0);
  EXPECT_EQ(outcome.kind, CdnAttemptClass::kCorrupted);
  EXPECT_TRUE(outcome.failed);
  EXPECT_DOUBLE_EQ(outcome.fail_fraction, 1.0);
  // The checksum can only fail once the full payload has landed.
  EXPECT_DOUBLE_EQ(outcome.fail_at_s, outcome.result.end_s);
  EXPECT_NEAR(outcome.result.end_s, 2.0, 1e-9);  // 16 megabits at 8 Mbps
}

TEST(SegmentSourceTest, SlowStartStretchesTheTransfer) {
  const auto trace = constant_rate(8.0);
  CdnSourceConfig config;
  config.faults.slow_start_prob = 1.0;
  config.faults.slow_scale = 0.25;
  const SegmentSource source(trace, config);

  const auto outcome = source.attempt(0, 0, 0.0, 16.0);
  EXPECT_EQ(outcome.kind, CdnAttemptClass::kSlow);
  EXPECT_FALSE(outcome.failed);
  // 2 s clean transfer crawling at a quarter rate: ~8 s.
  EXPECT_NEAR(outcome.result.end_s, 8.0, 1e-6);
}

TEST(SegmentSourceTest, DrawsAreDeterministicAndDecorrelatedBySourceId) {
  const auto trace = constant_rate(8.0, 600.0);
  CdnSourceConfig config;
  config.faults.error_prob = 0.5;
  config.faults.seed = 1234;

  const SegmentSource a(trace, config);
  const SegmentSource b(trace, config);
  CdnSourceConfig other = config;
  other.id = 1;
  const SegmentSource c(trace, other);

  bool id_changes_draws = false;
  for (std::size_t segment = 0; segment < 64; ++segment) {
    const auto x = a.attempt(segment, 0, 1.0, 8.0);
    const auto y = b.attempt(segment, 0, 1.0, 8.0);
    const auto z = c.attempt(segment, 0, 1.0, 8.0);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.result.end_s, y.result.end_s);
    EXPECT_EQ(x.fail_at_s, y.fail_at_s);
    if (x.kind != z.kind) id_changes_draws = true;
  }
  EXPECT_TRUE(id_changes_draws);
}

TEST(SegmentSourceTest, RejectsInvalidConfiguration) {
  const auto trace = constant_rate(8.0);
  CdnSourceConfig bad_prob;
  bad_prob.faults.error_prob = 1.5;
  EXPECT_THROW(SegmentSource(trace, bad_prob), std::invalid_argument);
  CdnSourceConfig bad_scale;
  bad_scale.throughput_scale = 0.0;
  EXPECT_THROW(SegmentSource(trace, bad_scale), std::invalid_argument);
  CdnSourceConfig bad_rtt;
  bad_rtt.base_rtt_s = -0.1;
  EXPECT_THROW(SegmentSource(trace, bad_rtt), std::invalid_argument);
  CdnSourceConfig bad_slow;
  bad_slow.faults.slow_start_prob = 0.5;
  bad_slow.faults.slow_scale = 0.0;
  EXPECT_THROW(SegmentSource(trace, bad_slow), std::invalid_argument);

  // NaN and out-of-range fields throw naming the field instead of reading
  // as a trivial source (a NaN probability or rate reads as off) or giving
  // NaN completions (a NaN scale).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejected_naming = [&](const CdnSourceConfig& config,
                                   const std::string& field) {
    try {
      const SegmentSource source(trace, config);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what()).find(field) != std::string::npos;
    }
    return false;
  };
  const auto with = [](auto edit) {
    CdnSourceConfig config;
    edit(config);
    return config;
  };
  const std::pair<const char*, double CdnFaultSpec::*> probabilities[] = {
      {"error_prob", &CdnFaultSpec::error_prob},
      {"episode_error_prob", &CdnFaultSpec::episode_error_prob},
      {"truncate_prob", &CdnFaultSpec::truncate_prob},
      {"corrupt_prob", &CdnFaultSpec::corrupt_prob},
      {"slow_start_prob", &CdnFaultSpec::slow_start_prob}};
  for (const auto& [field, member] : probabilities) {
    EXPECT_TRUE(rejected_naming(
        with([&](CdnSourceConfig& c) { c.faults.*member = nan; }), field))
        << field;
  }
  const std::tuple<const char*, double CdnFaultSpec::*, const char*,
                   double CdnFaultSpec::*>
      schedules[] = {{"outage_rate_per_min", &CdnFaultSpec::outage_rate_per_min,
                      "outage_mean_s", &CdnFaultSpec::outage_mean_s},
                     {"error_rate_per_min", &CdnFaultSpec::error_rate_per_min,
                      "error_episode_mean_s", &CdnFaultSpec::error_episode_mean_s}};
  for (const auto& [rate_field, rate, mean_field, mean] : schedules) {
    for (const double value : {nan, -1.0}) {
      EXPECT_TRUE(rejected_naming(
          with([&](CdnSourceConfig& c) { c.faults.*rate = value; }), rate_field))
          << rate_field << " " << value;
      EXPECT_TRUE(rejected_naming(with([&](CdnSourceConfig& c) {
                                    c.faults.*rate = 1.0;
                                    c.faults.*mean = value;
                                  }),
                                  mean_field))
          << mean_field << " " << value;
    }
  }
  EXPECT_TRUE(rejected_naming(
      with([&](CdnSourceConfig& c) { c.faults.slow_scale = nan; }), "slow_scale"));
  for (const double scale : {nan, inf}) {
    EXPECT_TRUE(rejected_naming(
        with([&](CdnSourceConfig& c) { c.throughput_scale = scale; }),
        "throughput_scale"))
        << scale;
  }
  EXPECT_TRUE(rejected_naming(with([&](CdnSourceConfig& c) { c.base_rtt_s = nan; }),
                              "base_rtt_s"));
  EXPECT_TRUE(rejected_naming(
      with([&](CdnSourceConfig& c) { c.faults.outages = {{nan, 5.0}}; }), "outages"));
}

TEST(CircuitBreakerTest, OpensOnFailureRateAndRecoversThroughHalfOpen) {
  CircuitBreaker breaker;  // window 8, min 4, threshold 0.5, cooldown 8 s
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow(0.0));

  // Below min_samples nothing trips, even at 100% failure.
  breaker.record_failure(1.0);
  breaker.record_failure(2.0);
  breaker.record_failure(3.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure(4.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 1.0);

  // Blocked during the cooldown, half-open probe after it.
  EXPECT_FALSE(breaker.allow(5.0));
  EXPECT_FALSE(breaker.allow(11.9));
  EXPECT_TRUE(breaker.allow(12.1));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // One probe success closes with a clean window.
  breaker.record_success(12.5);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 0.0);
  EXPECT_EQ(breaker.transitions(), 3U);  // open, half-open, closed
}

TEST(CircuitBreakerTest, ProbeFailureReopensImmediately) {
  CircuitBreaker breaker;
  for (int i = 0; i < 4; ++i) breaker.record_failure(static_cast<double>(i));
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  ASSERT_TRUE(breaker.allow(100.0));
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_failure(101.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // The fresh cooldown starts at the probe failure.
  EXPECT_FALSE(breaker.allow(105.0));
  EXPECT_TRUE(breaker.allow(110.0));
}

TEST(CircuitBreakerTest, MixedWindowBelowThresholdStaysClosed) {
  CircuitBreaker breaker;
  // One failure in four: no prefix of the window ever reaches the 0.5
  // threshold, so the breaker never trips.
  for (int i = 0; i < 8; ++i) {
    if (i % 4 == 0) {
      breaker.record_failure(static_cast<double>(i));
    } else {
      breaker.record_success(static_cast<double>(i));
    }
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_LT(breaker.failure_rate(), 0.5);
  EXPECT_EQ(breaker.transitions(), 0U);
}

TEST(SourceSelectorTest, PrefersHealthyHigherCapacitySources) {
  const auto trace = constant_rate(8.0);
  std::vector<SegmentSource> sources;
  CdnSourceConfig origin;
  sources.emplace_back(trace, origin);
  CdnSourceConfig edge;
  edge.name = "edge";
  edge.id = 1;
  edge.throughput_scale = 0.7;
  sources.emplace_back(trace, edge);

  SourceSelector selector(sources);
  EXPECT_EQ(selector.pick_primary(0.0), 0U);  // nominal capacity favours origin
  const auto backup = selector.pick_backup(0.0, 0);
  ASSERT_TRUE(backup.has_value());
  EXPECT_EQ(*backup, 1U);

  // Repeated origin failures trip its breaker; the selector fails over.
  for (int i = 0; i < 4; ++i) {
    selector.record(0, false, 0.0, static_cast<double>(i));
  }
  EXPECT_EQ(selector.breaker(0).state(), BreakerState::kOpen);
  EXPECT_EQ(selector.pick_primary(4.0), 1U);
  // With the only other source as primary, no backup remains.
  EXPECT_FALSE(selector.pick_backup(4.0, 1).has_value());
}

TEST(SourceSelectorTest, AllBreakersOpenStillPicksSomething) {
  const auto trace = constant_rate(8.0);
  std::vector<SegmentSource> sources;
  sources.emplace_back(trace, CdnSourceConfig{});
  CdnSourceConfig edge;
  edge.id = 1;
  edge.throughput_scale = 0.5;
  sources.emplace_back(trace, edge);

  SourceSelector selector(sources);
  for (int i = 0; i < 4; ++i) {
    selector.record(0, false, 0.0, static_cast<double>(i));
    selector.record(1, false, 0.0, static_cast<double>(i));
  }
  ASSERT_EQ(selector.breaker(0).state(), BreakerState::kOpen);
  ASSERT_EQ(selector.breaker(1).state(), BreakerState::kOpen);
  // Progress guarantee: a primary is still returned (best score overall).
  EXPECT_EQ(selector.pick_primary(4.0), 0U);
  EXPECT_FALSE(selector.pick_backup(4.0, 0).has_value());
}

TEST(SourceSelectorTest, EwmaScoreTracksObservedThroughput) {
  const auto trace = constant_rate(8.0);
  std::vector<SegmentSource> sources;
  sources.emplace_back(trace, CdnSourceConfig{});
  CdnSourceConfig edge;
  edge.id = 1;
  edge.throughput_scale = 0.9;
  sources.emplace_back(trace, edge);

  SourceSelector selector(sources);
  const double before = selector.score(1);
  // The nominally smaller edge consistently outperforms the origin.
  for (int i = 0; i < 12; ++i) {
    selector.record(1, true, 20.0, static_cast<double>(i));
    selector.record(0, true, 1.0, static_cast<double>(i));
  }
  EXPECT_GT(selector.score(1), before);
  EXPECT_EQ(selector.pick_primary(12.0), 1U);
}

TEST(SourceSelectorTest, EmptySourcesThrow) {
  EXPECT_THROW(SourceSelector(std::span<const SegmentSource>{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace eacs::net
