#pragma once
// Trace-driven DASH player simulator.
//
// Replays one streaming session: segments are requested sequentially, each
// download runs against the session's throughput trace, playback drains the
// buffer in wall-clock time, stalls (rebuffering) occur when the buffer
// empties mid-download, and downloading pauses whenever the buffer reaches
// the paper's 30 s threshold. The ABR policy under test is consulted before
// every segment request with the estimator state a real client would have.
//
// A session engine run over a faulty link (a player::FaultLinkModel over a
// net::FaultInjector, as the link-fault study plays it through
// sim::Evaluation::run_session) runs a resilience state machine per segment:
// per-attempt deadlines, bounded retries with exponential backoff and
// deterministic jitter, mid-download abandonment when a transfer outpaces
// the buffer drain, and degradation to the lowest rung while the link is
// failing. Its settings are the named constants below (kMaxRetries,
// kAttemptDeadlineS, ...), which no run varies. Aborted attempts are
// accounted as wasted bytes / wasted wall time, which eacs::sim prices as
// wasted download energy.
//
// A second run() overload corrupts the policy's sensing through a
// sensors::SensorFaultInjector while the link stays clean, and a third
// replays the session against N CDN sources (one per manifest BaseURL):
// per-source server faults, deterministic circuit breakers, health-scored
// failover and hedged requests — the multi-source delivery machinery of
// segment_source.h driven by the engine's CDN state machine. Hedging is the
// one resilience behaviour a run can switch (PlayerConfig::hedge_enabled).
//
// Each overload is one analytic player::SessionEngine run of one client
// (session_engine.h): the fault-free and sensor-fault paths run a
// SoloLinkModel, the multi-source path a CdnLinkModel. Pass a
// SessionObserver (e.g. SessionTimeline) to receive the structured
// per-event log of a run.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "eacs/media/manifest.h"
#include "eacs/net/bandwidth_estimator.h"
#include "eacs/net/downloader.h"
#include "eacs/net/segment_source.h"
#include "eacs/player/abr_policy.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/sensors/vibration.h"
#include "eacs/trace/session.h"

namespace eacs::player {

class SessionObserver;  // session_engine.h

// Retry / abandonment constants of fault-injected runs. Only the engine's
// resilience machines read them; the fault-free path never times out,
// retries or abandons, so they cannot perturb it.

/// Aborted attempts allowed per segment before the rescue fetch. The rescue
/// fetch (attempt kMaxRetries) drops to the lowest rung and keeps the
/// connection open until the transfer completes, so a session always
/// terminates with bounded retries.
inline constexpr std::size_t kMaxRetries = 4;

/// An attempt whose completion (or failure) would land later than this is
/// aborted at the deadline — the timeout that turns outages and stuck
/// transfers into observable failures.
inline constexpr double kAttemptDeadlineS = 15.0;

// Exponential backoff between retries: wait
//   min(kBackoffBaseS * kBackoffFactor^attempt, kBackoffMaxS)
// scaled by a deterministic jitter in [1, 1 + kBackoffJitter).
inline constexpr double kBackoffBaseS = 0.25;
inline constexpr double kBackoffFactor = 2.0;
inline constexpr double kBackoffMaxS = 4.0;
inline constexpr double kBackoffJitter = 0.25;

/// Retries at or beyond this count request the lowest rung (graceful
/// degradation while the link is failing); earlier retries step one rung
/// down per attempt.
inline constexpr std::size_t kDegradeAfter = 2;

/// Mid-download abandonment: if (while playing) a healthy transfer is
/// projected to outlast `kAbandonFactor * buffer`, probe for
/// `kAbandonProbeS`, abort, and re-request one rung lower. At most once per
/// segment.
inline constexpr double kAbandonFactor = 2.0;
inline constexpr double kAbandonProbeS = 1.0;
/// Never abandon with this much buffer.
inline constexpr double kAbandonMinBufferS = 4.0;

/// Hedged requests (multi-source CDN delivery, consulted only on CdnLinkModel
/// runs with more than one source or a non-trivial source; see
/// segment_source.h): when the primary source has neither completed nor
/// terminally failed by `kHedgeFraction * kAttemptDeadlineS` into an
/// attempt, duplicate the fetch to the best backup source.
inline constexpr double kHedgeFraction = 0.5;

/// Player buffer configuration (paper: B = 30 s threshold).
struct PlayerConfig {
  double buffer_threshold_s = 30.0;  ///< pause downloading above this level
  double startup_buffer_s = 4.0;     ///< playback begins once buffered
  std::size_t bandwidth_window = 20; ///< harmonic-mean estimator depth
  sensors::VibrationConfig vibration;  ///< vibration estimator settings
  /// Hedged requests on multi-source CDN runs (see kHedgeFraction). The
  /// first successful finisher wins; the loser's bytes are priced as wasted
  /// download energy through the existing accounting.
  bool hedge_enabled = true;
};

/// Deterministic backoff before retry `attempt` of `segment_index` (seconds).
/// Exposed for the property tests: monotone non-decreasing in `attempt` up to
/// the jittered cap, and a pure function of its arguments.
double retry_backoff_s(std::uint64_t fault_seed, std::size_t segment_index,
                       std::size_t attempt);

/// The single buffer rule, 0 < startup_s <= threshold_s < inf (NaN fails
/// it); throws std::invalid_argument prefixed with `who` otherwise.
void require_valid_buffer(const std::string& who, double threshold_s,
                          double startup_s);

/// The single buffer-drain / stall rule: plays `dt` seconds of wall time out
/// of `buffer_s` and returns the stall incurred (0 before startup). Every
/// engine link mode and the fleet's sessions route their playback through
/// here.
inline double drain_buffer(bool playing, double& buffer_s, double dt) {
  if (!playing || dt <= 0.0) return 0.0;
  if (buffer_s >= dt) {
    buffer_s -= dt;
    return 0.0;
  }
  const double stall = dt - buffer_s;
  buffer_s = 0.0;
  return stall;
}

/// Per-segment ("task") record of a completed run. This is the unit the
/// energy/QoE accounting in eacs::sim consumes.
struct TaskRecord {
  std::size_t segment_index = 0;
  std::size_t level = 0;
  double bitrate_mbps = 0.0;
  double size_mb = 0.0;
  double duration_s = 0.0;          ///< media duration of the segment
  double download_start_s = 0.0;    ///< start of the successful attempt
  double download_end_s = 0.0;
  double throughput_mbps = 0.0;     ///< measured size/time for this download
  double signal_dbm = -90.0;        ///< mean signal during the download
  double vibration = 0.0;           ///< vibration estimate at decision time
  /// Vibration estimate the *policy* saw at decision time. Equal to
  /// `vibration` except on sensor-fault runs, where the policy plans on the
  /// corrupted stream while `vibration` keeps the true estimate that the
  /// energy/QoE accounting prices.
  double perceived_vibration = 0.0;
  double buffer_before_s = 0.0;     ///< buffer level when the request was made
  double rebuffer_s = 0.0;          ///< stall time waiting for this segment
  bool startup = false;             ///< downloaded before playback began

  // Resilience accounting (all zero on fault-free runs).
  std::size_t retries = 0;          ///< aborted attempts before success
  bool abandoned = false;           ///< a mid-download abandonment occurred
  double wasted_mb = 0.0;           ///< bytes moved by aborted attempts
  double wasted_download_s = 0.0;   ///< connection time spent in aborted
                                    ///< attempts (hedge legs overlap wall time)
  double wasted_signal_dbm = -90.0; ///< byte-weighted mean signal over waste
  double backoff_s = 0.0;           ///< wall time spent backing off

  // Multi-source CDN accounting (zero outside CdnLinkModel runs).
  std::size_t source = 0;           ///< source that served the winning attempt
  std::size_t hedges = 0;           ///< hedged duplicates issued for this segment
};

/// Whole-session outcome.
struct PlaybackResult {
  std::vector<TaskRecord> tasks;
  double startup_delay_s = 0.0;
  double total_rebuffer_s = 0.0;    ///< post-startup stalls only
  std::size_t rebuffer_events = 0;
  std::size_t switch_count = 0;     ///< level changes between consecutive tasks
  double session_end_s = 0.0;       ///< wall clock when playback finished

  // Resilience totals (all zero on fault-free runs).
  std::size_t total_retries = 0;
  std::size_t abandoned_segments = 0;
  double total_wasted_mb = 0.0;
  double total_backoff_s = 0.0;

  // Multi-source CDN totals (zero outside CdnLinkModel runs).
  std::size_t total_hedges = 0;        ///< hedged duplicates issued
  std::size_t total_failovers = 0;     ///< primary-source switches
  std::size_t breaker_transitions = 0; ///< circuit-breaker state changes

  /// Cellular runs only: cell changes this client made (zero elsewhere).
  std::size_t cell_handoffs = 0;

  /// Total downloaded data in MB (successful attempts only; wasted bytes are
  /// tracked in total_wasted_mb).
  double total_downloaded_mb() const noexcept;
  /// Mean selected bitrate weighted by segment duration.
  double mean_bitrate_mbps() const noexcept;
};

/// The simulator. One instance per (manifest, config); `run` is const and can
/// be reused across policies and sessions.
class PlayerSimulator {
 public:
  PlayerSimulator(media::VideoManifest manifest, PlayerConfig config = {});

  const media::VideoManifest& manifest() const noexcept { return manifest_; }
  const PlayerConfig& config() const noexcept { return config_; }

  /// Replays the session with the given policy. The policy is reset() first.
  /// An optional observer receives the engine's per-event log (read-only:
  /// attaching one never changes the result).
  PlaybackResult run(AbrPolicy& policy, const trace::SessionTraces& session,
                     SessionObserver* observer = nullptr) const;

  /// Replays the session with corrupted *sensing*: the policy perceives the
  /// sensor-fault injector's accel/signal streams while the link and the true
  /// context (which the energy/QoE accounting prices) are untouched. An
  /// inactive injector is a strict no-op.
  PlaybackResult run(AbrPolicy& policy, const trace::SessionTraces& session,
                     const sensors::SensorFaultInjector& sensor_faults,
                     SessionObserver* observer = nullptr) const;

  /// Replays the session against N CDN sources (manifest BaseURLs) with
  /// per-source server faults, circuit breakers, failover and hedged
  /// requests (PlayerConfig::hedge_enabled). A single *trivial* source —
  /// default CdnFaultSpec, capacity scale 1, RTT 0 — is a strict no-op:
  /// the result is bit-identical to the fault-free overload. Sources are
  /// unowned and must outlive the call; throws std::invalid_argument when
  /// `sources` is empty.
  PlaybackResult run(AbrPolicy& policy, const trace::SessionTraces& session,
                     std::span<const net::SegmentSource> sources,
                     SessionObserver* observer = nullptr) const;

 private:
  media::VideoManifest manifest_;
  PlayerConfig config_;
};

}  // namespace eacs::player
