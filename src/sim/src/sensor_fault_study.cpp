#include "eacs/sim/sensor_fault_study.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "eacs/abr/bba.h"
#include "eacs/core/online.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/sim/seed_mix.h"

namespace eacs::sim {
namespace {

/// Periodic scripted episodes of `type` covering fraction `intensity` of
/// [0, horizon): episodes of `episode_s` every episode_s/intensity seconds.
/// Intensity >= 1 collapses to one contiguous episode over the whole stream.
std::vector<sensors::SensorFaultEpisode> periodic_episodes(
    sensors::SensorFaultType type, double intensity, double episode_s,
    double horizon_s) {
  std::vector<sensors::SensorFaultEpisode> episodes;
  if (horizon_s <= 0.0 || intensity <= 0.0) return episodes;
  if (intensity >= 1.0) {
    episodes.push_back({type, 0.0, horizon_s});
    return episodes;
  }
  const double period = episode_s / intensity;
  for (double t = 0.0; t < horizon_s; t += period) {
    episodes.push_back({type, t, std::min(t + episode_s, horizon_s)});
  }
  return episodes;
}

sensors::SensorFaultSpec build_spec(const SensorFaultStudyConfig& config,
                                    SensorFaultScenario scenario,
                                    double intensity, double accel_horizon_s,
                                    double signal_horizon_s,
                                    std::uint64_t seed) {
  sensors::SensorFaultSpec spec;
  spec.seed = seed;
  const auto accel_scenario = [&](sensors::SensorFaultType type) {
    spec.accel_episodes = periodic_episodes(type, intensity,
                                            config.episode_length_s,
                                            accel_horizon_s);
  };
  switch (scenario) {
    case SensorFaultScenario::kDropout:
      accel_scenario(sensors::SensorFaultType::kDropout);
      break;
    case SensorFaultScenario::kStuckAt:
      accel_scenario(sensors::SensorFaultType::kStuckAt);
      break;
    case SensorFaultScenario::kNoiseBurst:
      accel_scenario(sensors::SensorFaultType::kNoiseBurst);
      break;
    case SensorFaultScenario::kSaturation:
      accel_scenario(sensors::SensorFaultType::kSaturation);
      break;
    case SensorFaultScenario::kNanCorruption:
      accel_scenario(sensors::SensorFaultType::kNanCorruption);
      break;
    case SensorFaultScenario::kRateCollapse:
      accel_scenario(sensors::SensorFaultType::kRateCollapse);
      break;
    case SensorFaultScenario::kSignalDropout:
      spec.signal_episodes =
          periodic_episodes(sensors::SensorFaultType::kDropout, intensity,
                            config.episode_length_s, signal_horizon_s);
      break;
    case SensorFaultScenario::kCombined:
      spec.accel_episode_rate_per_min =
          config.combined_accel_rate_per_min * intensity;
      spec.signal_dropout_rate_per_min =
          config.combined_signal_rate_per_min * intensity;
      break;
  }
  return spec;
}

}  // namespace

const char* to_string(SensorFaultScenario scenario) noexcept {
  switch (scenario) {
    case SensorFaultScenario::kDropout: return "dropout";
    case SensorFaultScenario::kStuckAt: return "stuck_at";
    case SensorFaultScenario::kNoiseBurst: return "noise_burst";
    case SensorFaultScenario::kSaturation: return "saturation";
    case SensorFaultScenario::kNanCorruption: return "nan_corruption";
    case SensorFaultScenario::kRateCollapse: return "rate_collapse";
    case SensorFaultScenario::kSignalDropout: return "signal_dropout";
    case SensorFaultScenario::kCombined: return "combined";
  }
  return "unknown";
}

std::vector<SensorFaultScenario> all_sensor_fault_scenarios() {
  return {SensorFaultScenario::kDropout,       SensorFaultScenario::kStuckAt,
          SensorFaultScenario::kNoiseBurst,    SensorFaultScenario::kSaturation,
          SensorFaultScenario::kNanCorruption, SensorFaultScenario::kRateCollapse,
          SensorFaultScenario::kSignalDropout, SensorFaultScenario::kCombined};
}

const SensorFaultCell& SensorFaultStudyResult::cell(
    SensorFaultScenario scenario, double intensity) const {
  for (const auto& c : cells) {
    if (c.scenario == scenario && std::fabs(c.intensity - intensity) < 1e-12) {
      return c;
    }
  }
  throw std::out_of_range(std::string("SensorFaultStudyResult: no cell for ") +
                          to_string(scenario));
}

SensorFaultStudyResult run_sensor_fault_study(
    const SensorFaultStudyConfig& config) {
  if (config.intensities.empty()) {
    throw std::invalid_argument("run_sensor_fault_study: empty intensity axis");
  }
  // Each rule is written so that NaN fails it; a non-positive episode length
  // would never advance periodic_episodes past the horizon.
  const auto reject = [](const char* field, const char* rule) {
    throw std::invalid_argument(std::string("run_sensor_fault_study: ") + field +
                                rule);
  };
  if (!(std::isfinite(config.episode_length_s) && config.episode_length_s > 0.0)) {
    reject("episode_length_s", " must be finite and > 0");
  }
  for (const double intensity : config.intensities) {
    if (!(std::isfinite(intensity) && intensity >= 0.0)) {
      reject("intensities", " must be finite and >= 0");
    }
  }
  const std::pair<const char*, double> rates[] = {
      {"combined_accel_rate_per_min", config.combined_accel_rate_per_min},
      {"combined_signal_rate_per_min", config.combined_signal_rate_per_min}};
  for (const auto& [field, rate] : rates) {
    if (!(std::isfinite(rate) && rate >= 0.0)) {
      reject(field, " must be finite and >= 0");
    }
  }
  const auto scenarios = config.scenarios.empty() ? all_sensor_fault_scenarios()
                                                  : config.scenarios;

  const StudySessions fixture(config.evaluation);
  const std::size_t n_sessions = fixture.size();
  std::vector<std::vector<sensors::SignalSample>> signal_streams;
  signal_streams.reserve(n_sessions);
  for (const auto& session : fixture.sessions) {
    signal_streams.push_back(trace::signal_samples(session.signal_dbm));
  }

  struct UnitResult {
    SessionMetrics metrics;
    double context_error_sum = 0.0;
    std::size_t tasks = 0;
  };

  // One unit: degraded-context Ours over one session. A null injector runs
  // the clean baseline instead.
  const auto run_ours = [&](std::size_t s,
                            const sensors::SensorFaultInjector* faults) {
    const auto& session = fixture.sessions[s];
    core::OnlineBitrateSelector ours(
        fixture.objective,
        {.startup_level = config.evaluation.online_startup_level});
    const auto playback =
        faults != nullptr ? fixture.simulators[s].run(ours, session, *faults)
                          : fixture.simulators[s].run(ours, session);
    UnitResult unit;
    unit.metrics = fixture.metrics(ours.name(), s, playback);
    for (const auto& task : playback.tasks) {
      unit.context_error_sum += std::fabs(task.perceived_vibration - task.vibration);
    }
    unit.tasks = playback.tasks.size();
    return unit;
  };

  // Points [0, P) are the grid: point = scenario index * |intensities| +
  // intensity index, each unit building its own injector from
  // seed_mix(config.seed, point, session id). Point P is clean-context Ours
  // and point P + 1 the context-blind reference (BBA reads no
  // vibration/signal, so sensor faults cannot touch it).
  const std::size_t n_intensities = config.intensities.size();
  const std::size_t n_points = scenarios.size() * n_intensities;
  SensorFaultStudyResult result;
  result.cells.resize(n_points);
  std::vector<double> error_sums(n_points, 0.0);
  std::vector<std::size_t> task_counts(n_points, 0);
  run_grid(
      config.evaluation.exec.resolved_jobs(), n_points + 2, n_sessions,
      [&](std::size_t point, std::size_t s) {
        const auto& session = fixture.sessions[s];
        if (point == n_points) return run_ours(s, nullptr);
        if (point > n_points) {
          abr::Bba bba(5.0, config.evaluation.player.buffer_threshold_s);
          const auto playback = fixture.simulators[s].run(bba, session);
          return UnitResult{fixture.metrics(bba.name(), s, playback), 0.0, 0};
        }
        const double accel_horizon =
            session.accel.empty() ? 0.0 : session.accel.back().t_s;
        const auto spec = build_spec(
            config, scenarios[point / n_intensities],
            config.intensities[point % n_intensities], accel_horizon,
            session.signal_dbm.empty() ? 0.0 : session.signal_dbm.end_time(),
            seed_mix(config.seed, point, session.spec.id));
        const sensors::SensorFaultInjector faults(session.accel,
                                                  signal_streams[s], spec);
        return run_ours(s, &faults);
      },
      [&](std::size_t point, std::size_t, const UnitResult& unit) {
        if (point >= n_points) {
          (point == n_points ? result.clean_ours : result.context_blind)
              .add(unit.metrics, n_sessions);
          return;
        }
        result.cells[point].add(unit.metrics, n_sessions);
        error_sums[point] += unit.context_error_sum;
        task_counts[point] += unit.tasks;
      });

  for (std::size_t point = 0; point < n_points; ++point) {
    SensorFaultCell& cell = result.cells[point];
    cell.scenario = scenarios[point / n_intensities];
    cell.intensity = config.intensities[point % n_intensities];
    cell.mean_context_error =
        task_counts[point] > 0
            ? error_sums[point] / static_cast<double>(task_counts[point])
            : 0.0;
    cell.qoe_delta_vs_clean = cell.mean_qoe - result.clean_ours.mean_qoe;
    cell.energy_delta_vs_clean_j =
        cell.total_energy_j - result.clean_ours.total_energy_j;
    cell.rebuffer_delta_vs_clean_s =
        cell.rebuffer_s - result.clean_ours.rebuffer_s;
    cell.qoe_delta_vs_blind = cell.mean_qoe - result.context_blind.mean_qoe;
    cell.energy_delta_vs_blind_j =
        cell.total_energy_j - result.context_blind.total_energy_j;
  }
  return result;
}

}  // namespace eacs::sim
