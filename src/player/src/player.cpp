#include "eacs/player/player.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "eacs/player/session_engine.h"
#include "eacs/util/rng.h"

namespace eacs::player {

double PlaybackResult::total_downloaded_mb() const noexcept {
  double total = 0.0;
  for (const auto& task : tasks) total += task.size_mb;
  return total;
}

double PlaybackResult::mean_bitrate_mbps() const noexcept {
  double weighted = 0.0;
  double duration = 0.0;
  for (const auto& task : tasks) {
    weighted += task.bitrate_mbps * task.duration_s;
    duration += task.duration_s;
  }
  return duration > 0.0 ? weighted / duration : 0.0;
}

void require_valid_buffer(const std::string& who, double threshold_s,
                          double startup_s) {
  if (!(startup_s > 0.0 && startup_s <= threshold_s && std::isfinite(threshold_s))) {
    throw std::invalid_argument(
        who + ": buffer levels must satisfy 0 < startup <= threshold < inf");
  }
}

PlayerSimulator::PlayerSimulator(media::VideoManifest manifest, PlayerConfig config)
    : manifest_(std::move(manifest)), config_(config) {
  require_valid_buffer("PlayerSimulator", config_.buffer_threshold_s,
                       config_.startup_buffer_s);
  sensors::require_valid_vibration("PlayerSimulator", config_.vibration);
}

double retry_backoff_s(std::uint64_t fault_seed, std::size_t segment_index,
                       std::size_t attempt) {
  const double base = std::min(
      kBackoffBaseS * std::pow(kBackoffFactor, static_cast<double>(attempt)),
      kBackoffMaxS);
  // Deterministic jitter: a pure function of (seed, segment, attempt), so
  // an identical seed reproduces an identical schedule bit-for-bit.
  eacs::Rng rng(fault_seed ^
                (0xB0FF'B0FFULL *
                 (static_cast<std::uint64_t>(segment_index) * 131 + attempt + 1)));
  return base * (1.0 + kBackoffJitter * rng.uniform());
}

namespace {

/// The one engine entry every overload below shares: one client over `link`.
PlaybackResult run_engine(const media::VideoManifest& manifest,
                          const PlayerConfig& config, AbrPolicy& policy,
                          const trace::SessionTraces& session,
                          const LinkModel& link,
                          const sensors::SensorFaultInjector* sensor_faults,
                          SessionObserver* observer) {
  const SessionClient client{&manifest, &policy, &session, 0.0, sensor_faults};
  const SessionEngine engine(SessionEngineConfig{config, 0.05, 7200.0});
  return engine.run(client, link, observer);
}

}  // namespace

PlaybackResult PlayerSimulator::run(AbrPolicy& policy,
                                    const trace::SessionTraces& session,
                                    SessionObserver* observer) const {
  return run_engine(manifest_, config_, policy, session,
                    SoloLinkModel(session.throughput_mbps), nullptr, observer);
}

PlaybackResult PlayerSimulator::run(AbrPolicy& policy,
                                    const trace::SessionTraces& session,
                                    const sensors::SensorFaultInjector& sensor_faults,
                                    SessionObserver* observer) const {
  return run_engine(manifest_, config_, policy, session,
                    SoloLinkModel(session.throughput_mbps), &sensor_faults,
                    observer);
}

PlaybackResult PlayerSimulator::run(AbrPolicy& policy,
                                    const trace::SessionTraces& session,
                                    std::span<const net::SegmentSource> sources,
                                    SessionObserver* observer) const {
  return run_engine(manifest_, config_, policy, session, CdnLinkModel(sources),
                    nullptr, observer);
}

}  // namespace eacs::player
