#include "eacs/trace/session.h"

#include <algorithm>

namespace eacs::trace {

SessionTraces build_session(const media::SessionSpec& spec,
                            const SessionBuildOptions& options) {
  SessionTraces session;
  session.spec = spec;

  const double duration = spec.length_s + options.margin_s;
  const double severity = std::clamp(spec.avg_vibration / 7.0, 0.0, 1.0);

  SignalStrengthGenerator signal_gen(SignalModel::blended(severity), spec.seed);
  session.signal_dbm = signal_gen.generate(duration, options.signal_dt_s);

  ThroughputGenerator throughput_gen(ThroughputModel{}, spec.seed ^ 0x7417ULL);
  session.throughput_mbps = throughput_gen.generate(session.signal_dbm);

  // Every session takes the vehicle model, whatever spec.on_vehicle says:
  // Table V's five sessions were all recorded on the move; session 2's low
  // average (2.46) corresponds to a smooth ride, which calibration handles by
  // scaling the same vehicle waveform down.
  AccelGenerator accel_gen(AccelModel::moving_vehicle(), spec.seed ^ 0xACCE1ULL);
  session.accel =
      accel_gen.generate_calibrated(duration, spec.avg_vibration, options.vibration);

  return session;
}

std::vector<SessionTraces> build_all_sessions(const SessionBuildOptions& options) {
  std::vector<SessionTraces> sessions;
  for (const auto& spec : media::evaluation_sessions()) {
    sessions.push_back(build_session(spec, options));
  }
  return sessions;
}

std::vector<sensors::SignalSample> signal_samples(const TimeSeries& signal_dbm) {
  std::vector<sensors::SignalSample> readings;
  readings.reserve(signal_dbm.size());
  for (const auto& point : signal_dbm.samples()) {
    readings.push_back({point.t_s, point.value});
  }
  return readings;
}

}  // namespace eacs::trace
