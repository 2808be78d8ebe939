#pragma once
// The unified playback session engine.
//
// One event-driven core plays every session in the repo. The engine owns the
// single implementation of buffer drain / stall accounting, startup
// transitions, the buffer-threshold throttle and the per-segment resilience
// state machines. What varies between scenarios is the link, and the link's
// type chooses the engine mode. The analytic run plays one client over a
// LinkModel, resolving each attempt in closed form:
//
//  * SoloLinkModel    — trace-driven dedicated link; every attempt completes
//                       (the fault-free player semantics);
//  * FaultLinkModel   — wraps net::FaultInjector; attempts can fail, stall or
//                       time out, engaging the single-source resilience
//                       state machine, which runs on the injector itself
//                       (deadlines, bounded retries, backoff, degradation,
//                       abandonment, rescue fetch; player.h's kMaxRetries,
//                       kAttemptDeadlineS, ... constants);
//  * CdnLinkModel     — multi-source CDN delivery: N SegmentSources with
//                       per-source server faults; the engine's CDN machine
//                       calls the sources directly and adds circuit
//                       breakers, health-scored failover and hedged requests
//                       (PlayerConfig::hedge_enabled; first successful
//                       finisher wins, the loser's bytes are priced as
//                       wasted energy).
//
// The stepped run plays any number of clients over a CellularLinkModel: one
// processor-shared bottleneck per base station, integrated on a fixed step
// grid with sub-step completions resolved exactly. Clients join at their
// join times, attach per cell and follow handoff routes, and the engine
// advances cells through a global (step, cell) event heap so finished or
// empty cells cost nothing. One cell is the classic shared bottleneck.
//
// Every state transition is surfaced to SessionObserver hooks as a typed
// SessionEvent; SessionTimeline is the bundled observer that records the full
// per-event log and serialises it as CSV or JSON (used by
// `trace_explorer --timeline` and the event-ordering tests).
//
// Determinism: the engine adds no randomness of its own — all draws live in
// net::FaultInjector / retry_backoff_s and are pure functions of their seeds,
// so engine runs inherit the repo-wide bit-reproducibility contract
// (DESIGN.md §6). Observers are strictly read-only: attaching one can never
// perturb a result.

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "eacs/net/downloader.h"
#include "eacs/net/fault_injector.h"
#include "eacs/net/segment_source.h"
#include "eacs/player/abr_policy.h"
#include "eacs/player/player.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/sensors/vibration.h"
#include "eacs/trace/session.h"
#include "eacs/trace/time_series.h"

namespace eacs::player {

/// Sentinel for SessionEvent fields that do not apply to an event.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Everything the engine can report. Analytic links (solo, fault) emit
/// request/complete/failure/drain events with exact timestamps; the stepped
/// cellular link additionally emits per-step kDownloadProgress and
/// timestamps intra-step events at the step boundary.
enum class SessionEventType {
  kSessionStart,      ///< engine run begins (client = kNoIndex)
  kClientJoin,        ///< client becomes eligible to download
  kThrottleWait,      ///< buffer above threshold; value = idle seconds
  kRequestIssued,     ///< policy consulted, download starts; level is set
  kDownloadProgress,  ///< stepped links: value = megabits moved this step
  kDownloadComplete,  ///< segment landed; value = measured throughput (Mbps)
  kAttemptDeadline,   ///< attempt aborted at the deadline (fault links only)
  kAttemptFailure,    ///< attempt died mid-flight (fault links only)
  kAttemptAbandoned,  ///< mid-download abandonment (fault links only)
  kBackoffExpiry,     ///< retry backoff elapsed; value = waited seconds
  kBufferDrain,       ///< playback drained the buffer; value = seconds played
  kStall,             ///< buffer hit empty; value = stall seconds
  kStartup,           ///< playback began for this client
  kFaultTransition,   ///< outage boundary crossed; value = 1 enter, 0 leave
  kSourceFailover,    ///< CDN links: primary source switched; source = new
                      ///< primary, value = the previous source index
  kHedgeIssued,       ///< CDN links: duplicate fetch sent; source = backup
  kHedgeComplete,     ///< CDN links: hedged race resolved; source = winner,
                      ///< value = 0 primary won, 1 the hedge won
  kBreakerTransition, ///< CDN links: breaker changed state; source = which,
                      ///< value = new state (0 closed, 1 open, 2 half-open)
  kCellHandoff,       ///< cellular links: client moved cells at a step edge;
                      ///< source = new cell, value = the previous cell index
  kSessionEnd,        ///< engine run finished (client = kNoIndex)
};

/// Stable lower-case identifier (used in timeline CSV/JSON and tests).
const char* to_string(SessionEventType type) noexcept;

/// One engine event. Fields that do not apply hold kNoIndex / 0.0.
struct SessionEvent {
  SessionEventType type = SessionEventType::kSessionStart;
  double t_s = 0.0;                 ///< wall-clock time of the event
  std::size_t client = kNoIndex;    ///< client index within the run
  std::size_t segment = kNoIndex;   ///< segment the event concerns
  std::size_t attempt = kNoIndex;   ///< attempt number (fault links)
  std::size_t level = kNoIndex;     ///< ladder level in play
  std::size_t source = kNoIndex;    ///< CDN source index (CDN links only)
  double buffer_s = 0.0;            ///< client buffer after the event
  double value = 0.0;               ///< type-specific payload (see enum docs)
};

/// Read-only hook invoked on every engine event, in emission order.
/// Observers must not mutate engine inputs; attaching one never changes a
/// PlaybackResult.
class SessionObserver {
 public:
  virtual ~SessionObserver() = default;
  virtual void on_event(const SessionEvent& event) = 0;
};

/// Bundled observer: records the complete event log and serialises it.
class SessionTimeline final : public SessionObserver {
 public:
  void on_event(const SessionEvent& event) override;

  const std::vector<SessionEvent>& events() const noexcept { return events_; }
  std::size_t count(SessionEventType type) const noexcept;
  void clear() { events_.clear(); }

  /// CSV: header + one row per event (t_s,client,event,segment,attempt,
  /// level,source,buffer_s,value); kNoIndex prints as -1, doubles as %.17g.
  void write_csv(std::ostream& out) const;
  void write_csv(const std::string& path) const;

  /// JSON: {"events": [{...}, ...]} with the same fields as the CSV.
  void write_json(std::ostream& out) const;

 private:
  std::vector<SessionEvent> events_;
};

/// A cursor over a sensors::VibrationTrack that moves in lockstep with the
/// engine clock — the one vibration-seeding helper shared by every link mode
/// and by core::build_task_environments. Clocks on one track share its fill,
/// so the trace is streamed and walked once however many clocks read it: a
/// clock behind the fill searches for its stop (VibrationTrack::advance).
class VibrationClock {
 public:
  /// `track` is unowned and must outlive the clock.
  explicit VibrationClock(sensors::VibrationTrack& track) : track_(&track) {}

  /// Moves the cursor past every sample with timestamp <= t_s and returns
  /// the track's level after them. Throws std::invalid_argument, naming the
  /// sample, when the cursor stops at a NaN timestamp (the clock would
  /// otherwise stall there for the rest of the trace).
  double advance_to(double t_s);

  /// The level advance_to() last returned (0 before the first call).
  double level() const noexcept { return level_; }

 private:
  sensors::VibrationTrack* track_;
  std::size_t cursor_ = 0;
  double level_ = 0.0;
};

/// How the engine reaches the network on an analytic run. Every link
/// resolves a plain attempt() in closed form; unreliable() decides whether
/// the engine engages a resilience state machine, and the link then names
/// what that machine runs on: sources() for the CDN machine, else faults()
/// for the single-source machine. Stepped runs take a CellularLinkModel
/// instead.
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// True only for a link whose sources() is non-empty or whose faults()
  /// is non-null.
  virtual bool unreliable() const noexcept { return false; }

  /// Outcome of attempt `attempt` of `segment` started at `start_s`. The
  /// engine calls it on reliable links only, and there only when
  /// fast_downloader() is null or reference_mode is set.
  virtual net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                                      double start_s,
                                      double size_megabits) const = 0;
  /// Fault links only: the injector the single-source resilience machine
  /// runs on (attempts, rescue fetch, waste, outages and backoff seed).
  virtual const net::FaultInjector* faults() const noexcept { return nullptr; }
  /// CDN links only: the session's segment sources. Non-empty together with
  /// unreliable() engages the engine's multi-source failover machine
  /// (per-source breakers, health-scored selection, hedged requests)
  /// instead of the single-source resilience machine.
  virtual std::span<const net::SegmentSource> sources() const noexcept {
    return {};
  }

  /// Devirtualization hook for the reliable analytic path. Non-null only when
  /// every attempt() on this link reduces to a plain
  /// `downloader->download(start, size)` — i.e. the model is certifiably
  /// trivial (solo link; fault link with an inactive injector; single
  /// trivial CDN source). The engine then calls the downloader directly per
  /// segment instead of dispatching through attempt(), which is
  /// bit-identical by construction (the virtual path wraps the same call).
  /// Unreliable links return null and take the full machinery.
  virtual const net::SegmentDownloader* fast_downloader() const noexcept = 0;
};

/// Dedicated trace-driven link: every attempt completes, nothing times out.
class SoloLinkModel final : public LinkModel {
 public:
  /// The trace is unowned — it must be non-empty (SegmentDownloader
  /// validates) and outlive the model, like a CellularLinkModel's cell
  /// traces. Sweeps build one model per (session, policy) run, so sharing the
  /// session's trace instead of copying it is what makes those runs
  /// allocation-free on the link side.
  explicit SoloLinkModel(const trace::TimeSeries& throughput_mbps)
      : downloader_(net::borrow_trace(throughput_mbps)) {}

  net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                              double start_s, double size_megabits) const override;
  const net::SegmentDownloader* fast_downloader() const noexcept override {
    return &downloader_;
  }

 private:
  net::SegmentDownloader downloader_;
};

/// Fault-injected link: wraps a net::FaultInjector (unowned, must outlive the
/// model). unreliable() mirrors injector.active(), so a disabled spec behaves
/// exactly like a solo link over the same trace.
class FaultLinkModel final : public LinkModel {
 public:
  explicit FaultLinkModel(const net::FaultInjector& faults) : faults_(&faults) {}

  bool unreliable() const noexcept override { return faults_->active(); }
  net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                              double start_s, double size_megabits) const override;
  const net::FaultInjector* faults() const noexcept override { return faults_; }
  /// Inactive injector: attempt() is exactly downloader().download(...).
  const net::SegmentDownloader* fast_downloader() const noexcept override {
    return faults_->active() ? nullptr : &faults_->downloader();
  }

 private:
  const net::FaultInjector* faults_;
};

/// Multi-source CDN delivery: N SegmentSources (unowned, must outlive the
/// model), one per manifest BaseURL. unreliable() is false only for a single
/// *trivial* source (default CdnFaultSpec, scale 1, RTT 0) — the engine then
/// takes the plain fast path over that source's downloader, which is the
/// certified no-op the sim studies' baselines rely on. Otherwise the engine
/// runs the CDN failover machine on the sources: per-source circuit
/// breakers, health-scored source selection and hedged requests
/// (PlayerConfig::hedge_enabled). Source 0 (the origin) provides the fault
/// seed for backoff jitter and the outage schedule surfaced as
/// kFaultTransition events.
class CdnLinkModel final : public LinkModel {
 public:
  /// Throws std::invalid_argument on an empty source list.
  explicit CdnLinkModel(std::span<const net::SegmentSource> sources);

  bool unreliable() const noexcept override;
  net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                              double start_s, double size_megabits) const override;
  std::span<const net::SegmentSource> sources() const noexcept override {
    return sources_;
  }
  /// Single trivial source: attempt() is its downloader's download() (no
  /// fault gates, scale 1, RTT 0 — the certified no-op configuration).
  const net::SegmentDownloader* fast_downloader() const noexcept override {
    return unreliable() ? nullptr : &sources_[0].downloader();
  }

 private:
  std::span<const net::SegmentSource> sources_;
};

/// The stepped link: a cellular network with one processor-shared capacity
/// trace per base station. Completion times depend on who else is
/// downloading, so the engine integrates on SessionEngineConfig::step_s
/// steps, and each cell splits its capacity equally among its downloading
/// members. Clients attach to SessionClient::home_cell and follow their
/// SessionClient::route between cells (handoffs applied at step edges, an
/// in-flight download carries its remaining bytes to the new cell). The
/// traces are unowned and must outlive the model.
class CellularLinkModel {
 public:
  /// Throws std::invalid_argument on an empty cell list or any null/empty
  /// capacity trace.
  explicit CellularLinkModel(std::span<const trace::TimeSeries* const> cells);
  /// One cell: every client shares one bottleneck. Throws
  /// std::invalid_argument on an empty capacity trace.
  explicit CellularLinkModel(const trace::TimeSeries& capacity_mbps);

  std::span<const trace::TimeSeries* const> cells() const noexcept {
    return cells_;
  }

 private:
  std::vector<const trace::TimeSeries*> cells_;
};

/// One scheduled cell change on a client's route through a cellular network.
struct CellHop {
  double t_s = 0.0;       ///< earliest time the handoff can happen
  std::size_t cell = 0;   ///< destination cell index
};

/// One participating client. `context` supplies signal/accel traces (and
/// nothing else — the link owns throughput).
struct SessionClient {
  const media::VideoManifest* manifest = nullptr;  ///< stream to play
  AbrPolicy* policy = nullptr;                     ///< adaptation algorithm
  const trace::SessionTraces* context = nullptr;   ///< signal/accel context
  double join_time_s = 0.0;  ///< stepped links only: when the client starts

  /// Optional sensor-fault injector (unowned, must outlive the run). When
  /// attached and active, the policy perceives the injector's corrupted
  /// accel/signal streams (graded by a SensorHealthMonitor) while the
  /// physical session — link, true signal, true vibration — is untouched;
  /// TaskRecord::vibration keeps the true estimate, perceived_vibration what
  /// the policy saw. Null or inactive: strict no-op, bit-identical results.
  const sensors::SensorFaultInjector* sensor_faults = nullptr;

  /// Optional vibration track (unowned, must outlive the run) that the
  /// client's clock reads. Set, it must read `context->accel` (the same
  /// object) under SessionEngineConfig::player.vibration; a caller that
  /// plays one context several times (policies, or a planner's task
  /// environments) shares one track and streams the trace once. Null: the
  /// analytic run builds a track for the run, a stepped run one per
  /// distinct context among its null-track clients. Results are bit for
  /// bit the same either way.
  sensors::VibrationTrack* vibration_track = nullptr;

  // --- stepped (CellularLinkModel) runs only ------------------------------
  /// Cell the client attaches to before its first handoff.
  std::size_t home_cell = 0;
  /// Scheduled handoffs, sorted by t_s (unowned storage, must outlive the
  /// run). Each hop is applied at the first step edge at or after its t_s,
  /// in client index order when several land on the same edge; an in-flight
  /// download carries its remaining megabits to the new cell. Hops to the
  /// current cell are no-ops. Empty: the client never leaves home_cell.
  std::span<const CellHop> route = {};
};

/// Engine knobs. `player` applies to every client; the step/stop values are
/// consulted only for stepped links.
struct SessionEngineConfig {
  PlayerConfig player;
  double step_s = 0.05;           ///< stepped-link integration step, finite
  double max_session_s = 7200.0;  ///< stepped-link hard stop (defensive); +inf
                                  ///< plays every client to its end
  /// Disables the devirtualized download path and the stateful trace
  /// cursors, forcing the original virtual-dispatch / binary-search-per-
  /// lookup code. Results are bit-identical either way — this switch exists
  /// so tests/differential/ can prove it on every scenario.
  bool reference_mode = false;
};

/// The unified session engine. Stateless across runs: one instance can be
/// reused for any number of runs, links and observers.
class SessionEngine {
 public:
  /// Throws std::invalid_argument on non-positive buffer parameters or a
  /// startup buffer above the threshold (same contract as PlayerSimulator),
  /// and, naming the field, unless step_s is finite and > 0 and
  /// max_session_s is > 0 (NaN fails both).
  explicit SessionEngine(SessionEngineConfig config);

  const SessionEngineConfig& config() const noexcept { return config_; }

  /// Analytic run: plays `client` against `link` (join_time_s, home_cell
  /// and route ignored). The policy is reset() first. Throws
  /// std::invalid_argument on null client fields or a vibration track over
  /// another trace or under another config.
  PlaybackResult run(const SessionClient& client, const LinkModel& link,
                     SessionObserver* observer = nullptr) const;

  /// Stepped run: every client to completion over the cells of `link`;
  /// result[i] corresponds to clients[i]. Policies are reset() first.
  /// Throws std::invalid_argument on null client fields, a vibration track
  /// over another trace or under another config, a NaN join time, or a
  /// home cell, route cell, NaN route time or route order that does not fit
  /// `link`.
  std::vector<PlaybackResult> run(std::span<const SessionClient> clients,
                                  const CellularLinkModel& link,
                                  SessionObserver* observer = nullptr) const;

 private:
  /// The pre-refactor single-bottleneck stepping loop, kept verbatim so the
  /// differential harness can certify the cellular path against it. One-cell
  /// runs in reference_mode take it.
  std::vector<PlaybackResult> run_stepped_reference(
      std::span<const SessionClient> clients,
      const trace::TimeSeries& capacity_mbps, SessionObserver* observer) const;
  /// The cellular path: per-cell stepping driven by a global (step, cell)
  /// event heap, with handoffs applied at step edges. Single cell is
  /// bit-identical to run_stepped_reference.
  std::vector<PlaybackResult> run_cells(
      std::span<const SessionClient> clients,
      std::span<const trace::TimeSeries* const> cells,
      SessionObserver* observer) const;

  SessionEngineConfig config_;
};

}  // namespace eacs::player
