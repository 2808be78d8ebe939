#pragma once
// The "task" abstraction (Section III-A): downloading one video segment is
// one task; a streaming session is a sequence of N tasks. A TaskEnvironment
// snapshots everything the objective needs to price a task's bitrate
// choices: the segment's candidate sizes plus the network/context conditions
// in effect while the task runs.

#include <cstddef>
#include <vector>

#include "eacs/media/manifest.h"
#include "eacs/sensors/vibration.h"
#include "eacs/trace/session.h"

namespace eacs::core {

/// Environment of one task.
struct TaskEnvironment {
  std::size_t index = 0;           ///< segment index
  double duration_s = 0.0;         ///< media duration of the segment
  double signal_dbm = -90.0;       ///< signal strength during the download
  double vibration = 0.0;          ///< vibration level at playback time
  double bandwidth_mbps = 0.0;     ///< available (oracle or estimated) rate
  std::vector<double> size_megabits;  ///< candidate size per ladder level
};

/// Builds oracle task environments for a whole session: per-task mean signal,
/// mean throughput and streamed vibration level, sampled along the nominal
/// playback timeline (task i spans [i*D, (i+1)*D)). Used by the optimal
/// planner, which the paper defines as having perfect future knowledge.
/// The vibration is read from `track`, a track over `session.accel`
/// (the same object; std::invalid_argument otherwise) under the config the
/// engine senses with, so the plan prices the vibration the playback does.
/// A caller that also plays the session shares the track with the engine's
/// clients (player::SessionClient::vibration_track).
std::vector<TaskEnvironment> build_task_environments(
    const media::VideoManifest& manifest, const trace::SessionTraces& session,
    sensors::VibrationTrack& track);

/// The same under the default sensors::VibrationConfig, on a track of its
/// own.
std::vector<TaskEnvironment> build_task_environments(
    const media::VideoManifest& manifest, const trace::SessionTraces& session);

}  // namespace eacs::core
