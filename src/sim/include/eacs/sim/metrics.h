#pragma once
// Post-run accounting: turns a PlaybackResult (what the player did) into the
// energy/QoE metrics the paper reports.
//
// Energy decomposition (Fig. 5(c)): the *base* energy is what the session
// would have cost had every segment been fetched at the lowest bitrate —
// screen + decode + minimum radio traffic; it is the floor no ABR algorithm
// can undercut. The *extra* energy is everything above that floor, i.e. what
// bitrate adaptation actually controls. The paper's headline numbers (77% /
// 80% savings for Ours/Optimal) are on the extra-energy basis.

#include <string>
#include <vector>

#include "eacs/player/player.h"
#include "eacs/power/model.h"
#include "eacs/qoe/model.h"

namespace eacs::sim {

/// Metrics of one (algorithm, session) run.
struct SessionMetrics {
  std::string algorithm;
  int session_id = 0;

  double total_energy_j = 0.0;    ///< includes wasted_energy_j on fault runs
  double base_energy_j = 0.0;
  double extra_energy_j = 0.0;

  double mean_qoe = 0.0;           ///< duration-weighted per-task QoE
  double mean_bitrate_mbps = 0.0;
  double downloaded_mb = 0.0;

  double rebuffer_s = 0.0;
  std::size_t rebuffer_events = 0;
  std::size_t switch_count = 0;
  double startup_delay_s = 0.0;

  // Resilience accounting (all zero on fault-free runs).
  double wasted_energy_j = 0.0;   ///< radio energy of aborted transfers
  double wasted_mb = 0.0;
  std::size_t retries = 0;
  std::size_t abandoned_segments = 0;
};

/// Computes all metrics for one run, in one pass over the tasks that
/// evaluates each task's energy per MB once: total_energy_j is bitwise
/// session_energy_j, and base_energy_j is the same session with every
/// segment at the lowest rung and no stalls, priced under each task's
/// recorded signal.
SessionMetrics compute_metrics(const std::string& algorithm, int session_id,
                               const player::PlaybackResult& result,
                               const media::VideoManifest& manifest,
                               const qoe::QoeModel& qoe_model,
                               const power::PowerModel& power_model);

/// Whole-session energy from the task records (sum of per-task energies,
/// plus the wasted radio energy of aborted transfers on fault runs).
double session_energy_j(const player::PlaybackResult& result,
                        const power::PowerModel& power_model);

/// Radio energy spent on aborted download attempts — bytes that moved but
/// were thrown away (the paper's per-byte e(signal) pricing applied to the
/// wasted bytes). Zero on fault-free runs.
double session_wasted_energy_j(const player::PlaybackResult& result,
                               const power::PowerModel& power_model);

/// Duration-weighted mean per-task QoE (vibration, switch and rebuffer
/// impairments included), bitwise the sum of segment_qoe over the tasks;
/// q0(r) and r^beta are evaluated once per run of equal bitrates.
double session_mean_qoe(const player::PlaybackResult& result,
                        const qoe::QoeModel& qoe_model);

/// RRC-aware whole-session energy decomposition (extension).
///
/// The paper's per-byte radio model prices only the bytes moved; the RRC
/// machine adds what pacing costs: tail energy after each download burst,
/// DRX/idle floors between bursts, and promotion energy when the radio has
/// dropped to IDLE. Radio-active energy keeps the signal-dependent per-byte
/// pricing (e(s) * bytes); RRC supplies the tail/idle/promotion components
/// on top, and playback energy is accounted as in the base model.
struct RrcSessionEnergy {
  double data_j = 0.0;        ///< per-byte e(signal) radio energy
  double tail_j = 0.0;        ///< post-burst tail states
  double idle_j = 0.0;        ///< radio idle floor
  double promotion_j = 0.0;   ///< IDLE -> CONNECTED promotions
  double playback_j = 0.0;    ///< screen + decode (+ stalls)
  std::size_t promotions = 0;
  double tail_time_s = 0.0;

  double radio_j() const noexcept {
    return data_j + tail_j + idle_j + promotion_j;
  }
  double total_j() const noexcept { return radio_j() + playback_j; }
};

/// Computes the RRC-aware decomposition from a playback run. The download
/// burst timeline is taken from the task records; playback covers each
/// task's media duration plus its stalls.
RrcSessionEnergy session_energy_rrc(const player::PlaybackResult& result,
                                    const power::PowerModel& power_model);

}  // namespace eacs::sim
