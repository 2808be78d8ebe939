#pragma once
// Shared fixtures for player/abr/core/sim tests: hand-built sessions with
// controlled network and vibration conditions.

#include <cmath>

#include "eacs/media/manifest.h"
#include "eacs/net/fault_injector.h"
#include "eacs/player/player.h"
#include "eacs/player/session_engine.h"
#include "eacs/trace/session.h"

namespace eacs::testing {

/// A session with constant throughput/signal and a constant-amplitude
/// vibration waveform (amplitude chosen so the estimator reads ~`vibration`).
inline trace::SessionTraces make_session(double duration_s, double throughput_mbps,
                                         double signal_dbm = -90.0,
                                         double vibration = 0.0,
                                         double margin_s = 200.0) {
  trace::SessionTraces session;
  session.spec.id = 99;
  session.spec.length_s = duration_s;
  session.spec.avg_vibration = vibration;
  const double total = duration_s + margin_s;

  for (double t = 0.0; t <= total; t += 0.5) {
    session.signal_dbm.append(t, signal_dbm);
    session.throughput_mbps.append(t, throughput_mbps);
  }

  constexpr double kPi = 3.14159265358979323846;
  const double amplitude = vibration * std::sqrt(2.0);
  const double dt = 1.0 / 50.0;
  for (double t = 0.0; t <= total; t += dt) {
    session.accel.push_back(
        {t, 0.0, 0.0, 9.80665 + amplitude * std::sin(2.0 * kPi * 5.0 * t)});
  }
  return session;
}

/// Step-throughput session: `first_mbps` until `switch_at_s`, then
/// `second_mbps`.
inline trace::SessionTraces make_step_session(double duration_s, double first_mbps,
                                              double second_mbps, double switch_at_s,
                                              double signal_dbm = -90.0,
                                              double vibration = 0.0) {
  trace::SessionTraces session = make_session(duration_s, first_mbps, signal_dbm,
                                              vibration);
  trace::TimeSeries stepped;
  for (const auto& point : session.throughput_mbps.samples()) {
    stepped.append(point.t_s, point.t_s < switch_at_s ? first_mbps : second_mbps);
  }
  session.throughput_mbps = std::move(stepped);
  return session;
}

/// Replays `session` on the simulator's manifest and config through a fault
/// injector: one analytic SessionEngine run of one client over a
/// FaultLinkModel, engaging the resilience state machine. An inactive
/// injector (FaultSpec{}) is a strict no-op against PlayerSimulator::run.
inline player::PlaybackResult run_with_link_faults(
    const player::PlayerSimulator& simulator, player::AbrPolicy& policy,
    const trace::SessionTraces& session, const net::FaultInjector& faults,
    player::SessionObserver* observer = nullptr) {
  const player::SessionClient client{&simulator.manifest(), &policy, &session};
  const player::SessionEngine engine(player::SessionEngineConfig{simulator.config()});
  return engine.run(client, player::FaultLinkModel(faults), observer);
}

/// A small CBR manifest on the paper's 14-rate evaluation ladder.
inline media::VideoManifest make_manifest(double duration_s = 60.0,
                                          double segment_s = 2.0) {
  return media::VideoManifest("test-video", duration_s, segment_s,
                              media::BitrateLadder::evaluation14());
}

}  // namespace eacs::testing
