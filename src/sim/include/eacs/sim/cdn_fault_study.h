#pragma once
// CDN fault study (extension; sibling of fault_study.h / sensor_fault_study.h).
//
// The fault-tolerance study stresses the *link*, the sensor-fault study the
// *sensing*; this study stresses the *servers*. It replays every Table V
// session against N CDN sources (net::SegmentSource) whose origin misbehaves
// — scripted/seeded outages, HTTP error episodes, truncated/corrupted
// payloads, slow-start degradation — sweeping fault family x intensity x
// source count, and reports QoE / energy / rebuffering / wasted-download
// energy plus failover, hedge and circuit-breaker activity. The
// source-count-1 column is the single-source retry-only baseline: the same
// faulty origin with no failover target, so every cell's deltas quantify
// what multi-source delivery (circuit breakers + health-scored failover +
// hedged requests) buys over pure retry. The player is
// config.evaluation.player, as in the sensor-fault study, so its
// PlayerConfig::hedge_enabled (on by default) switches the hedged requests.
// Deterministic in (config, seed) at any job count.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eacs/sim/study.h"

namespace eacs::sim {

/// Server-side failure families swept by the study; each maps onto the
/// corresponding net::CdnFaultSpec knobs applied to the origin source.
enum class CdnFaultFamily {
  kOriginOutage,       ///< long seeded outages (tens of seconds of dead origin)
  kErrorBursts,        ///< HTTP 4xx/5xx error episodes
  kPayloadCorruption,  ///< truncated and corrupted segment payloads
  kSlowStart,          ///< per-request throughput collapse (overloaded origin)
  kCombined,           ///< all of the above at half strength
};

/// Stable lower-case identifier (tables, CSV, logs).
const char* to_string(CdnFaultFamily family) noexcept;

/// All families, in sweep order.
std::vector<CdnFaultFamily> all_cdn_fault_families();

/// Sweep configuration. Intensity linearly scales the family's fault knobs;
/// the defaults give a (family x {0.5, 1} x {1, 2, 3}) grid whose
/// source-count-1 column is the retry-only baseline.
struct CdnFaultStudyConfig {
  EvaluationConfig evaluation;

  /// Families to sweep; empty = all_cdn_fault_families().
  std::vector<CdnFaultFamily> families;

  /// Scales the faulty origin's knobs below (1.0 = the listed values).
  std::vector<double> intensities = {0.5, 1.0};

  /// Sources per cell: the origin plus (count - 1) clean but lower-capacity
  /// edges (edge k serves at max(0.4, 1 - 0.15 k) of the origin's capacity
  /// with 0.03 k s of extra per-request latency — a farther, smaller cache).
  /// Include 1 to get the retry-only baseline the deltas refer to.
  std::vector<std::size_t> source_counts = {1, 2, 3};

  // Origin fault knobs at intensity 1 -------------------------------------
  double outage_rate_per_min = 0.8;  ///< kOriginOutage: outage density
  double outage_mean_s = 40.0;       ///< kOriginOutage: long origin outages
  double error_rate_per_min = 2.0;   ///< kErrorBursts: episode density
  double error_episode_mean_s = 10.0;
  double truncate_prob = 0.15;       ///< kPayloadCorruption
  double corrupt_prob = 0.10;        ///< kPayloadCorruption
  double slow_start_prob = 0.5;      ///< kSlowStart
  double slow_scale = 0.25;          ///< kSlowStart: residual throughput

  std::uint64_t seed = 0xCD4F'A170'57D1ULL;
};

/// One (family, intensity, source count) grid point: the delivery-robust
/// player aggregated across the Table V sessions.
struct CdnFaultCell : StudyTotals {
  CdnFaultFamily family = CdnFaultFamily::kOriginOutage;
  double intensity = 0.0;
  std::size_t sources = 1;

  std::size_t hedges = 0;
  std::size_t failovers = 0;
  std::size_t breaker_transitions = 0;

  /// Deltas vs. the source-count-1 (retry-only) cell of the same family and
  /// intensity. Zero when the sweep omits source count 1.
  double qoe_delta_vs_single = 0.0;
  double energy_delta_vs_single_j = 0.0;
  double rebuffer_delta_vs_single_s = 0.0;

  /// Deltas vs. the fault-free single-source run over the same sessions.
  double qoe_delta_vs_clean = 0.0;
  double rebuffer_delta_vs_clean_s = 0.0;
};

/// Aggregate of the fault-free reference run.
using CdnFaultBaseline = StudyTotals;

/// Full sweep outcome.
struct CdnFaultStudyResult {
  CdnFaultBaseline clean;             ///< fault-free single-source reference
  std::vector<CdnFaultCell> cells;    ///< family-major, then intensity, then
                                      ///< source count

  /// Throws std::out_of_range when the cell is absent.
  const CdnFaultCell& cell(CdnFaultFamily family, double intensity,
                           std::size_t sources) const;
};

/// Runs the sweep on the shared study harness (study.h): deterministic in
/// config.seed (per-source draws are decorrelated by source id inside
/// net::SegmentSource) and bit-identical at any job count.
CdnFaultStudyResult run_cdn_fault_study(const CdnFaultStudyConfig& config = {});

}  // namespace eacs::sim
