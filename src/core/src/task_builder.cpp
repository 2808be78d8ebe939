#include "eacs/core/task.h"

#include <stdexcept>

#include "eacs/player/session_engine.h"

namespace eacs::core {

std::vector<TaskEnvironment> build_task_environments(
    const media::VideoManifest& manifest, const trace::SessionTraces& session,
    sensors::VibrationTrack& track) {
  if (&track.trace() != &session.accel) {
    throw std::invalid_argument(
        "build_task_environments: the vibration track reads another trace "
        "than session.accel");
  }
  std::vector<TaskEnvironment> tasks;
  tasks.reserve(manifest.num_segments());

  // Read the vibration track along the playback timeline.
  player::VibrationClock vibration(track);

  const std::size_t levels = manifest.ladder().size();
  for (std::size_t i = 0; i < manifest.num_segments(); ++i) {
    TaskEnvironment env;
    env.index = i;
    env.duration_s = manifest.segment_duration(i);
    const double t0 = static_cast<double>(i) * manifest.segment_duration_s();
    const double t1 = t0 + env.duration_s;
    env.signal_dbm = session.signal_dbm.mean_over(t0, t1);
    env.bandwidth_mbps = session.throughput_mbps.mean_over(t0, t1);
    env.vibration = vibration.advance_to(t0);
    env.size_megabits.reserve(levels);
    for (std::size_t level = 0; level < levels; ++level) {
      env.size_megabits.push_back(manifest.segment_size_megabits(i, level));
    }
    tasks.push_back(std::move(env));
  }
  return tasks;
}

std::vector<TaskEnvironment> build_task_environments(
    const media::VideoManifest& manifest, const trace::SessionTraces& session) {
  sensors::VibrationTrack track(session.accel, sensors::VibrationConfig{});
  return build_task_environments(manifest, session, track);
}

}  // namespace eacs::core
