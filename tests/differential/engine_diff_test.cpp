// Differential certification harness for the SessionEngine fast paths.
//
// DESIGN §6 promises that the devirtualized download path, the stateful
// trace cursors and the arena-merging parallel engine change *nothing* about
// results — not approximately, bitwise. golden_metrics pins a handful of
// headline numbers; this harness pins everything: for every scenario in the
// matrix (solo / stepped-throughput / link-fault / sensor-fault / trivial-CDN
// / faulty-CDN / shared-link) it runs the engine once in reference_mode
// (original virtual-dispatch, binary-search-per-lookup code) and once with
// the fast paths engaged, serialises the full PlaybackResult as C99 hex
// floats (%a — every bit of every double) plus the complete event-timeline
// CSV, and EXPECT_EQs the dumps. A jobs {1,2,8} axis re-runs the scenario
// matrix through util::parallel_map to certify the arena merge on top.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/decision_cache.h"
#include "eacs/core/horizon.h"
#include "eacs/core/online.h"
#include "eacs/net/fault_injector.h"
#include "eacs/net/segment_source.h"
#include "eacs/player/session_engine.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/trace/trace_io.h"
#include "eacs/util/thread_pool.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::make_step_session;

std::string hex(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

// Every field of every task and every session total, hex-exact.
std::string serialize(const std::vector<PlaybackResult>& results) {
  std::ostringstream out;
  for (const PlaybackResult& r : results) {
    out << "result"
        << " startup=" << hex(r.startup_delay_s)
        << " rebuffer=" << hex(r.total_rebuffer_s)
        << " rebuffer_events=" << r.rebuffer_events
        << " switches=" << r.switch_count
        << " end=" << hex(r.session_end_s)
        << " retries=" << r.total_retries
        << " abandoned=" << r.abandoned_segments
        << " wasted_mb=" << hex(r.total_wasted_mb)
        << " backoff=" << hex(r.total_backoff_s)
        << " hedges=" << r.total_hedges
        << " failovers=" << r.total_failovers
        << " breaker=" << r.breaker_transitions
        << " handoffs=" << r.cell_handoffs << "\n";
    for (const TaskRecord& t : r.tasks) {
      out << "task " << t.segment_index << " level=" << t.level
          << " bitrate=" << hex(t.bitrate_mbps)
          << " size=" << hex(t.size_mb)
          << " duration=" << hex(t.duration_s)
          << " dl_start=" << hex(t.download_start_s)
          << " dl_end=" << hex(t.download_end_s)
          << " tput=" << hex(t.throughput_mbps)
          << " signal=" << hex(t.signal_dbm)
          << " vib=" << hex(t.vibration)
          << " pvib=" << hex(t.perceived_vibration)
          << " buf=" << hex(t.buffer_before_s)
          << " stall=" << hex(t.rebuffer_s)
          << " startup=" << t.startup
          << " retries=" << t.retries
          << " abandoned=" << t.abandoned
          << " wasted_mb=" << hex(t.wasted_mb)
          << " wasted_s=" << hex(t.wasted_download_s)
          << " wasted_sig=" << hex(t.wasted_signal_dbm)
          << " backoff=" << hex(t.backoff_s)
          << " source=" << t.source
          << " hedges=" << t.hedges << "\n";
    }
  }
  return out.str();
}

struct RunOutput {
  std::string result;
  std::string timeline;

  bool operator==(const RunOutput&) const = default;
};

SessionEngine engine_for(bool reference_mode) {
  SessionEngineConfig config;
  config.reference_mode = reference_mode;
  return SessionEngine(config);
}

RunOutput dump(const std::vector<PlaybackResult>& results,
               const SessionTimeline& timeline) {
  std::ostringstream csv;
  timeline.write_csv(csv);
  return {serialize(results), csv.str()};
}

RunOutput run_clients(bool reference_mode, std::span<const SessionClient> clients,
                      const CellularLinkModel& link) {
  SessionTimeline timeline;
  const auto results = engine_for(reference_mode).run(clients, link, &timeline);
  return dump(results, timeline);
}

RunOutput run_single(bool reference_mode, const media::VideoManifest& manifest,
                     const trace::SessionTraces& session, AbrPolicy& policy,
                     const LinkModel& link,
                     const sensors::SensorFaultInjector* sensor_faults = nullptr) {
  const SessionClient client{&manifest, &policy, &session, 0.0, sensor_faults};
  SessionTimeline timeline;
  const auto result = engine_for(reference_mode).run(client, link, &timeline);
  return dump({result}, timeline);
}

// --- the scenario matrix ----------------------------------------------------
// Each scenario is a pure function of reference_mode: it builds its own
// sessions, policies and link, so it can run from any worker thread (the
// DESIGN §6 purity contract the jobs-matrix test leans on).

RunOutput scenario_solo(bool reference_mode) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -95.0, 2.0);
  abr::Festive policy;
  const SoloLinkModel link(session.throughput_mbps);
  return run_single(reference_mode, manifest, session, policy, link);
}

RunOutput scenario_solo_step(bool reference_mode) {
  const auto manifest = make_manifest(90.0, 2.0);
  const auto session = make_step_session(90.0, 12.0, 2.5, 40.0, -102.0, 4.0);
  abr::Bba policy(5.0, 30.0);
  const SoloLinkModel link(session.throughput_mbps);
  return run_single(reference_mode, manifest, session, policy, link);
}

RunOutput scenario_link_faults(bool reference_mode) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 6.0, -106.0, 3.0);
  net::FaultSpec spec;
  spec.outages.push_back({12.0, 20.0});
  spec.outage_rate_per_min = 1.0;
  spec.failure_prob = 0.08;
  spec.signal_failure_per_db = 0.01;
  spec.stall_prob = 0.05;
  const net::FaultInjector injector(session.throughput_mbps, spec,
                                    &session.signal_dbm);
  abr::Bba policy(5.0, 30.0);
  const FaultLinkModel link(injector);
  return run_single(reference_mode, manifest, session, policy, link);
}

RunOutput scenario_inactive_faults(bool reference_mode) {
  // Disabled injector: unreliable() is false, so the engine takes the
  // devirtualized path through the injector's own downloader.
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -95.0, 2.0);
  const net::FaultInjector injector(session.throughput_mbps, net::FaultSpec{},
                                    &session.signal_dbm);
  abr::Festive policy;
  const FaultLinkModel link(injector);
  return run_single(reference_mode, manifest, session, policy, link);
}

RunOutput scenario_sensor_faults(bool reference_mode) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -85.0, 3.0);
  sensors::SensorFaultSpec spec;
  spec.accel_episode_rate_per_min = 4.0;
  spec.signal_dropout_rate_per_min = 2.0;
  const sensors::SensorFaultInjector injector(
      session.accel, trace::signal_samples(session.signal_dbm), spec);
  abr::Festive policy;
  const SoloLinkModel link(session.throughput_mbps);
  return run_single(reference_mode, manifest, session, policy, link, &injector);
}

std::vector<net::SegmentSource> make_sources(const trace::SessionTraces& session,
                                             std::size_t count,
                                             const net::CdnFaultSpec& origin_faults) {
  std::vector<net::SegmentSource> sources;
  sources.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::CdnSourceConfig config;
    config.name = i == 0 ? "origin" : "edge-" + std::to_string(i);
    config.id = i;
    if (i == 0) {
      config.faults = origin_faults;
    } else {
      config.throughput_scale = 1.0 - 0.15 * static_cast<double>(i);
      config.base_rtt_s = 0.03 * static_cast<double>(i);
    }
    sources.emplace_back(session.throughput_mbps, config, &session.signal_dbm);
  }
  return sources;
}

RunOutput scenario_cdn_trivial(bool reference_mode) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -95.0, 2.0);
  const auto sources = make_sources(session, 1, net::CdnFaultSpec{});
  abr::Festive policy;
  const CdnLinkModel link{std::span<const net::SegmentSource>(sources)};
  return run_single(reference_mode, manifest, session, policy, link);
}

RunOutput scenario_cdn_faulty(bool reference_mode) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 6.0, -100.0, 2.0);
  net::CdnFaultSpec spec;
  spec.outages = {{20.0, 70.0}};
  const auto sources = make_sources(session, 3, spec);
  abr::Bba policy(5.0, 30.0);
  const CdnLinkModel link{std::span<const net::SegmentSource>(sources)};
  return run_single(reference_mode, manifest, session, policy, link);
}

RunOutput scenario_shared(bool reference_mode) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto capacity_owner = make_session(60.0, 14.0);
  const auto session_a = make_session(60.0, 8.0, -95.0, 2.0);
  const auto session_b = make_session(60.0, 8.0, -105.0, 4.0);
  const auto session_c = make_session(60.0, 8.0, -88.0, 0.5);
  abr::Bba policy_a(5.0, 30.0);
  abr::Festive policy_b;
  abr::FixedBitrate policy_c(3, "fixed3");
  const CellularLinkModel link(capacity_owner.throughput_mbps);
  std::vector<SessionClient> clients = {
      {&manifest, &policy_a, &session_a, 0.0},
      {&manifest, &policy_b, &session_b, 5.0},
      {&manifest, &policy_c, &session_c, 12.0}};
  return run_clients(reference_mode, clients, link);
}

// Single-cell fleet of `n` clients over one shared bottleneck. In reference
// mode this runs the preserved pre-refactor loop; with the fast paths on it
// runs the cellular event-heap engine — so these scenarios certify the
// fleet-scale refactor at sizes 1/2/4/8 (staggered joins, mixed policies).
RunOutput scenario_fleet(bool reference_mode, std::size_t n) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto capacity_owner = make_session(60.0, 6.0 * static_cast<double>(n));
  std::vector<trace::SessionTraces> sessions;
  std::vector<std::unique_ptr<AbrPolicy>> policies;
  for (std::size_t c = 0; c < n; ++c) {
    sessions.push_back(make_session(60.0, 8.0, -90.0 - static_cast<double>(c) * 4.0,
                                    0.5 * static_cast<double>(c)));
    switch (c % 3) {
      case 0: policies.push_back(std::make_unique<abr::Bba>(5.0, 30.0)); break;
      case 1: policies.push_back(std::make_unique<abr::Festive>()); break;
      default:
        policies.push_back(std::make_unique<abr::FixedBitrate>(4, "fixed4"));
        break;
    }
  }
  const CellularLinkModel link(capacity_owner.throughput_mbps);
  std::vector<SessionClient> clients;
  for (std::size_t c = 0; c < n; ++c) {
    clients.push_back({&manifest, policies[c].get(), &sessions[c],
                       1.5 * static_cast<double>(c)});
  }
  return run_clients(reference_mode, clients, link);
}

using Scenario = std::function<RunOutput(bool)>;

const std::vector<std::pair<const char*, Scenario>>& scenarios() {
  static const std::vector<std::pair<const char*, Scenario>> all = {
      {"solo", scenario_solo},
      {"solo_step", scenario_solo_step},
      {"link_faults", scenario_link_faults},
      {"inactive_faults", scenario_inactive_faults},
      {"sensor_faults", scenario_sensor_faults},
      {"cdn_trivial", scenario_cdn_trivial},
      {"cdn_faulty", scenario_cdn_faulty},
      {"shared", scenario_shared},
      {"fleet1", [](bool ref) { return scenario_fleet(ref, 1); }},
      {"fleet2", [](bool ref) { return scenario_fleet(ref, 2); }},
      {"fleet4", [](bool ref) { return scenario_fleet(ref, 4); }},
      {"fleet8", [](bool ref) { return scenario_fleet(ref, 8); }},
  };
  return all;
}

// --- the certification ------------------------------------------------------

TEST(EngineDifferentialTest, FastPathBitIdenticalToReferenceEverywhere) {
  for (const auto& [name, scenario] : scenarios()) {
    const RunOutput reference = scenario(true);
    const RunOutput fast = scenario(false);
    EXPECT_EQ(reference.result, fast.result) << "scenario " << name;
    EXPECT_EQ(reference.timeline, fast.timeline) << "scenario " << name;
    // Sanity: the dumps carry real content, not an accidentally empty run.
    EXPECT_NE(reference.result.find("task"), std::string::npos)
        << "scenario " << name;
  }
}

TEST(EngineDifferentialTest, ExactKeyCachedSelectorsBitIdenticalToUncached) {
  // The DecisionCache's rich-engine default (exact keys): caching must be
  // pure memoization — a cached selector's full hex-float playback dump
  // equals the uncached selector's, at a comfortable capacity AND through a
  // 1-slot cache whose every collision evicts.
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0, -95.0, 2.0);
  const SoloLinkModel link(session.throughput_mbps);
  const core::Objective objective(qoe::QoeModel{}, power::PowerModel{});

  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{1}}) {
    core::DecisionCacheConfig config;  // exact mode
    config.capacity = capacity;

    core::OnlineBitrateSelector online_uncached(objective);
    const RunOutput online_base =
        run_single(false, manifest, session, online_uncached, link);
    const auto online_cache = std::make_shared<core::DecisionCache>(config);
    core::OnlineBitrateSelector online_cached(objective,
                                              {.cache = online_cache});
    EXPECT_EQ(run_single(false, manifest, session, online_cached, link),
              online_base)
        << "online, capacity " << capacity;
    EXPECT_GT(online_cache->stats().lookups(), 0u);

    core::RollingHorizonSelector horizon_uncached(objective);
    const RunOutput horizon_base =
        run_single(false, manifest, session, horizon_uncached, link);
    const auto horizon_cache = std::make_shared<core::DecisionCache>(config);
    core::RollingHorizonSelector horizon_cached(objective,
                                                {.cache = horizon_cache});
    EXPECT_EQ(run_single(false, manifest, session, horizon_cached, link),
              horizon_base)
        << "horizon, capacity " << capacity;
    EXPECT_GT(horizon_cache->stats().lookups(), 0u);
  }
}

TEST(EngineDifferentialTest, QuantizedCacheStorageNeverChangesDecisions) {
  // Quantized mode certification: capacity 0 (canonicalize every snapshot,
  // solve every time, store nothing) is the reference; any real capacity
  // must reproduce its playback bitwise — storage and eviction can only
  // save solves, never change them. Unlike the exact-key test this run has
  // genuine coalescing, so the capacity-4096 cache must also HIT.
  const auto manifest = make_manifest(90.0, 2.0);
  const auto session = make_step_session(90.0, 12.0, 2.5, 40.0, -102.0, 4.0);
  const SoloLinkModel link(session.throughput_mbps);
  const core::Objective objective(qoe::QoeModel{}, power::PowerModel{});

  core::DecisionCacheConfig quantized;
  quantized.exact = false;
  quantized.prev_level_bucket = 2;

  quantized.capacity = 0;
  const auto reference_cache =
      std::make_shared<core::DecisionCache>(quantized);
  core::OnlineBitrateSelector reference(objective, {.cache = reference_cache});
  const RunOutput base = run_single(false, manifest, session, reference, link);
  EXPECT_EQ(reference_cache->stats().hits, 0u);

  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{1}}) {
    quantized.capacity = capacity;
    const auto cache = std::make_shared<core::DecisionCache>(quantized);
    core::OnlineBitrateSelector cached(objective, {.cache = cache});
    EXPECT_EQ(run_single(false, manifest, session, cached, link), base)
        << "capacity " << capacity;
    EXPECT_EQ(cache->stats().lookups(), reference_cache->stats().lookups());
    if (capacity >= 4096) {
      EXPECT_GT(cache->stats().hits, 0u);
    }
  }
}

TEST(EngineDifferentialTest, TrivialCdnSourceEqualsSoloLink) {
  // The certified no-op: one trivial source must reproduce the solo link
  // over the same trace bit-for-bit (the sim baselines rely on it).
  EXPECT_EQ(scenario_cdn_trivial(false).result, scenario_solo(false).result);
  EXPECT_EQ(scenario_cdn_trivial(true).result, scenario_solo(true).result);
}

TEST(EngineDifferentialTest, ScenarioMatrixBitIdenticalAcrossJobCounts) {
  // Flatten (scenario × mode) into one work list and fan it out through the
  // arena-merging parallel engine at several job counts. Everything must
  // equal the serial reference — this certifies the arena merge and the
  // thread-safety of the shared immutable inputs at once.
  const auto& matrix = scenarios();
  const std::size_t n = matrix.size() * 2;
  std::vector<RunOutput> reference(n);
  for (std::size_t i = 0; i < n; ++i) {
    reference[i] = matrix[i / 2].second(i % 2 == 0);
  }
  for (const std::size_t jobs : {1U, 2U, 8U}) {
    const auto outputs = util::parallel_map(jobs, n, [&](std::size_t i) {
      return matrix[i / 2].second(i % 2 == 0);
    });
    ASSERT_EQ(outputs.size(), n) << "jobs=" << jobs;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(outputs[i].result, reference[i].result)
          << "jobs=" << jobs << " scenario " << matrix[i / 2].first
          << (i % 2 == 0 ? " (reference_mode)" : " (fast)");
      EXPECT_EQ(outputs[i].timeline, reference[i].timeline)
          << "jobs=" << jobs << " scenario " << matrix[i / 2].first;
    }
  }
}

TEST(EngineDifferentialTest, ReferenceModeDefaultsOff) {
  // The fast paths are the production configuration; reference_mode exists
  // only for this harness.
  EXPECT_FALSE(SessionEngineConfig{}.reference_mode);
}

}  // namespace
}  // namespace eacs::player
