#include "eacs/sim/cdn_fault_study.h"

#include <cmath>
#include <span>
#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/net/segment_source.h"
#include "eacs/sim/seed_mix.h"

namespace eacs::sim {
namespace {

// Edge-source shape: edge k (1-based) serves at capacity
// max(kEdgeScaleFloor, 1 - k * kEdgeScaleStep) with k * kEdgeRttStepS of
// extra per-request latency — a farther, smaller cache.
constexpr double kEdgeScaleStep = 0.15;
constexpr double kEdgeScaleFloor = 0.4;
constexpr double kEdgeRttStepS = 0.03;

/// Origin fault spec for one grid point: the family's knobs scaled linearly
/// by intensity. Per-source draws are decorrelated by source id inside
/// SegmentSource, so one seed per (grid point, session) suffices.
net::CdnFaultSpec origin_spec(const CdnFaultStudyConfig& config,
                              CdnFaultFamily family, double intensity,
                              std::uint64_t seed) {
  net::CdnFaultSpec spec;
  spec.seed = seed;
  const auto outage = [&](double scale) {
    spec.outage_rate_per_min = config.outage_rate_per_min * intensity * scale;
    spec.outage_mean_s = config.outage_mean_s;
  };
  const auto errors = [&](double scale) {
    spec.error_rate_per_min = config.error_rate_per_min * intensity * scale;
    spec.error_episode_mean_s = config.error_episode_mean_s;
  };
  const auto payload = [&](double scale) {
    spec.truncate_prob = config.truncate_prob * intensity * scale;
    spec.corrupt_prob = config.corrupt_prob * intensity * scale;
  };
  const auto slow = [&](double scale) {
    spec.slow_start_prob = config.slow_start_prob * intensity * scale;
    spec.slow_scale = config.slow_scale;
  };
  switch (family) {
    case CdnFaultFamily::kOriginOutage: outage(1.0); break;
    case CdnFaultFamily::kErrorBursts: errors(1.0); break;
    case CdnFaultFamily::kPayloadCorruption: payload(1.0); break;
    case CdnFaultFamily::kSlowStart: slow(1.0); break;
    case CdnFaultFamily::kCombined:
      outage(0.5);
      errors(0.5);
      payload(0.5);
      slow(0.5);
      break;
  }
  return spec;
}

}  // namespace

const char* to_string(CdnFaultFamily family) noexcept {
  switch (family) {
    case CdnFaultFamily::kOriginOutage: return "origin_outage";
    case CdnFaultFamily::kErrorBursts: return "error_bursts";
    case CdnFaultFamily::kPayloadCorruption: return "payload_corruption";
    case CdnFaultFamily::kSlowStart: return "slow_start";
    case CdnFaultFamily::kCombined: return "combined";
  }
  return "unknown";
}

std::vector<CdnFaultFamily> all_cdn_fault_families() {
  return {CdnFaultFamily::kOriginOutage, CdnFaultFamily::kErrorBursts,
          CdnFaultFamily::kPayloadCorruption, CdnFaultFamily::kSlowStart,
          CdnFaultFamily::kCombined};
}

const CdnFaultCell& CdnFaultStudyResult::cell(CdnFaultFamily family,
                                              double intensity,
                                              std::size_t sources) const {
  for (const auto& c : cells) {
    if (c.family == family && std::fabs(c.intensity - intensity) < 1e-12 &&
        c.sources == sources) {
      return c;
    }
  }
  throw std::out_of_range(std::string("CdnFaultStudyResult: no cell for ") +
                          to_string(family));
}

CdnFaultStudyResult run_cdn_fault_study(const CdnFaultStudyConfig& config) {
  if (config.intensities.empty() || config.source_counts.empty()) {
    throw std::invalid_argument("run_cdn_fault_study: empty sweep axes");
  }
  for (const std::size_t count : config.source_counts) {
    if (count == 0) {
      throw std::invalid_argument("run_cdn_fault_study: zero source count");
    }
  }
  const auto families =
      config.families.empty() ? all_cdn_fault_families() : config.families;

  const StudySessions fixture(config.evaluation);
  const std::size_t n_sessions = fixture.size();

  // Points [0, P) are the grid: point = (family index * |intensities| +
  // intensity index) * |source counts| + source-count index. Each unit's
  // fault seed is seed_mix(config.seed, point / |source counts|, session
  // id): it ignores the source-count axis on purpose, so a given (family,
  // intensity, session) draws the *same* origin fault realisation at every
  // source count and that axis isolates the failover machinery rather than
  // re-rolling the faults. Point P is the fault-free single-source
  // reference.
  const std::size_t n_counts = config.source_counts.size();
  const std::size_t n_intensities = config.intensities.size();
  const std::size_t n_points = families.size() * n_intensities * n_counts;

  struct UnitResult {
    SessionMetrics metrics;
    std::size_t hedges = 0;
    std::size_t failovers = 0;
    std::size_t breaker_transitions = 0;
  };

  // One unit: the delivery policy (BBA — the study isolates delivery
  // robustness, not ABR choice) over one session through the point's
  // sources: the faulty origin plus (count - 1) clean edges.
  const auto run_unit = [&](std::size_t point, std::size_t s) {
    const auto& session = fixture.sessions[s];
    abr::Bba bba(5.0, config.evaluation.player.buffer_threshold_s);
    player::PlaybackResult playback;
    if (point == n_points) {
      playback = fixture.simulators[s].run(bba, session);
    } else {
      const std::size_t fault_point = point / n_counts;
      const std::size_t count = config.source_counts[point % n_counts];
      std::vector<net::SegmentSource> sources;
      sources.reserve(count);
      net::CdnSourceConfig origin;
      origin.name = "origin";
      origin.id = 0;
      origin.faults = origin_spec(
          config, families[fault_point / n_intensities],
          config.intensities[fault_point % n_intensities],
          seed_mix(config.seed, fault_point, session.spec.id));
      sources.emplace_back(session.throughput_mbps, origin, &session.signal_dbm);
      for (std::size_t k = 1; k < count; ++k) {
        net::CdnSourceConfig edge;
        edge.name = "edge-" + std::to_string(k);
        edge.id = k;
        edge.throughput_scale = std::max(
            kEdgeScaleFloor, 1.0 - static_cast<double>(k) * kEdgeScaleStep);
        edge.base_rtt_s = static_cast<double>(k) * kEdgeRttStepS;
        sources.emplace_back(session.throughput_mbps, edge, &session.signal_dbm);
      }
      playback = fixture.simulators[s].run(
          bba, session, std::span<const net::SegmentSource>(sources));
    }
    return UnitResult{fixture.metrics(bba.name(), s, playback),
                      playback.total_hedges, playback.total_failovers,
                      playback.breaker_transitions};
  };

  CdnFaultStudyResult result;
  for (const auto family : families) {
    for (const double intensity : config.intensities) {
      for (const std::size_t count : config.source_counts) {
        CdnFaultCell& cell = result.cells.emplace_back();
        cell.family = family;
        cell.intensity = intensity;
        cell.sources = count;
      }
    }
  }
  run_grid(config.evaluation.exec.resolved_jobs(), n_points + 1, n_sessions,
           run_unit,
           [&](std::size_t point, std::size_t, const UnitResult& unit) {
             if (point == n_points) {
               result.clean.add(unit.metrics, n_sessions);
               return;
             }
             CdnFaultCell& cell = result.cells[point];
             cell.add(unit.metrics, n_sessions);
             cell.hedges += unit.hedges;
             cell.failovers += unit.failovers;
             cell.breaker_transitions += unit.breaker_transitions;
           });

  // Deltas vs. the fault-free reference and vs. the retry-only
  // (source-count-1) cell of the same family and intensity.
  for (auto& cell : result.cells) {
    cell.qoe_delta_vs_clean = cell.mean_qoe - result.clean.mean_qoe;
    cell.rebuffer_delta_vs_clean_s = cell.rebuffer_s - result.clean.rebuffer_s;
    for (const auto& single : result.cells) {
      if (single.sources == 1 && single.family == cell.family &&
          std::fabs(single.intensity - cell.intensity) < 1e-12) {
        cell.qoe_delta_vs_single = cell.mean_qoe - single.mean_qoe;
        cell.energy_delta_vs_single_j =
            cell.total_energy_j - single.total_energy_j;
        cell.rebuffer_delta_vs_single_s = cell.rebuffer_s - single.rebuffer_s;
        break;
      }
    }
  }
  return result;
}

}  // namespace eacs::sim
