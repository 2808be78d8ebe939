#pragma once
// The unified playback session engine.
//
// One event-driven core replaces the three playback loops the repo used to
// carry (fault-free PlayerSimulator::run, the fault-injected resilience
// overload, and MultiClientSimulator's stepped shared-link loop). The engine
// owns the single implementation of buffer drain / stall accounting, startup
// transitions, the buffer-threshold throttle and the per-segment resilience
// state machine. What varies between scenarios is the link, and the link's
// type chooses the engine mode. Analytic links derive from LinkModel, resolve
// each attempt in closed form and carry exactly one client:
//
//  * SoloLinkModel    — trace-driven dedicated link; every attempt completes
//                       (the fault-free player semantics);
//  * FaultLinkModel   — wraps net::FaultInjector; attempts can fail, stall or
//                       time out, engaging ResilienceConfig's state machine
//                       (deadlines, bounded retries, backoff, degradation,
//                       abandonment, rescue fetch);
//  * CdnLinkModel     — multi-source CDN delivery: N SegmentSources with
//                       per-source server faults; the engine adds circuit
//                       breakers, health-scored failover and hedged requests
//                       (first successful finisher wins, the loser's bytes
//                       are priced as wasted energy).
//
// The stepped link is CellularLinkModel: one processor-shared bottleneck per
// base station, integrated on a fixed step grid with sub-step completions
// resolved exactly. Clients attach per cell and follow handoff routes, and
// the engine advances cells through a global (step, cell) event heap so
// finished or empty cells cost nothing. One cell is the classic shared
// bottleneck that MultiClientSimulator runs.
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
#include <cstdint>
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
  void write_json(const std::string& path) const;

 private:
  std::vector<SessionEvent> events_;
};

/// Streams accelerometer samples into a vibration estimator in lockstep with
/// the engine clock — the one vibration-seeding helper shared by every link
/// mode (previously duplicated between player.cpp and multi_client.cpp).
class VibrationClock {
 public:
  /// `trace` is unowned and must outlive the clock.
  VibrationClock(const sensors::AccelTrace& trace, sensors::VibrationConfig config)
      : trace_(&trace), estimator_(config) {}

  /// Consumes all samples with timestamp <= t_s and returns the level.
  double advance_to(double t_s) {
    while (cursor_ < trace_->size() && (*trace_)[cursor_].t_s <= t_s) {
      estimator_.update((*trace_)[cursor_]);
      ++cursor_;
    }
    return estimator_.level();
  }

  /// Current level without consuming further samples.
  double level() const noexcept { return estimator_.level(); }

 private:
  const sensors::AccelTrace* trace_;
  sensors::VibrationEstimator estimator_;
  std::size_t cursor_ = 0;
};

/// How the engine reaches the network on an analytic run: the link resolves
/// one attempt in closed form via attempt()/rescue(), and unreliable()
/// decides whether the engine engages the resilience state machine around
/// those attempts. Stepped runs take a CellularLinkModel instead.
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  virtual bool unreliable() const noexcept { return false; }

  /// Outcome of attempt `attempt` of `segment` started at `start_s`.
  virtual net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                                      double start_s,
                                      double size_megabits) const = 0;
  /// Rescue fetch: a held-open transfer that always completes.
  virtual net::DownloadResult rescue(double start_s,
                                     double size_megabits) const = 0;
  /// Megabits the link moves over [t0, t1] (waste accounting for aborts).
  virtual double megabits_over(double t0, double t1) const = 0;
  /// True if `t_s` is inside a link outage.
  virtual bool in_outage(double /*t_s*/) const noexcept { return false; }
  /// Seed for the deterministic retry-backoff jitter.
  virtual std::uint64_t fault_seed() const noexcept { return 0; }
  /// Sorted outage schedule for kFaultTransition events (may be null).
  virtual const std::vector<net::OutageWindow>* outage_schedule() const noexcept {
    return nullptr;
  }
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
  virtual const net::SegmentDownloader* fast_downloader() const noexcept {
    return nullptr;
  }
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
  net::DownloadResult rescue(double start_s, double size_megabits) const override;
  double megabits_over(double t0, double t1) const override;
  const net::SegmentDownloader* fast_downloader() const noexcept override {
    return &downloader_;
  }

  const net::SegmentDownloader& downloader() const noexcept { return downloader_; }

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
  net::DownloadResult rescue(double start_s, double size_megabits) const override;
  double megabits_over(double t0, double t1) const override;
  bool in_outage(double t_s) const noexcept override;
  std::uint64_t fault_seed() const noexcept override;
  const std::vector<net::OutageWindow>* outage_schedule() const noexcept override;
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
/// runs the CDN failover machine: per-source circuit breakers, health-scored
/// source selection and hedged requests (ResilienceConfig's CDN knobs).
/// The analytic LinkModel methods delegate to source 0 (the origin), which
/// also provides the fault seed for backoff jitter and the outage schedule
/// surfaced as kFaultTransition events.
class CdnLinkModel final : public LinkModel {
 public:
  /// Throws std::invalid_argument on an empty source list.
  explicit CdnLinkModel(std::span<const net::SegmentSource> sources);

  bool unreliable() const noexcept override;
  net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                              double start_s, double size_megabits) const override;
  net::DownloadResult rescue(double start_s, double size_megabits) const override;
  double megabits_over(double t0, double t1) const override;
  bool in_outage(double t_s) const noexcept override;
  std::uint64_t fault_seed() const noexcept override;
  const std::vector<net::OutageWindow>* outage_schedule() const noexcept override;
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
  double step_s = 0.05;           ///< stepped-link integration step
  double max_session_s = 7200.0;  ///< stepped-link hard stop (defensive)
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
  /// Throws std::invalid_argument on non-positive buffer/step parameters or
  /// startup buffer above the threshold (same contract as PlayerSimulator).
  explicit SessionEngine(SessionEngineConfig config);

  const SessionEngineConfig& config() const noexcept { return config_; }

  /// Analytic run: plays the one client in `clients` against `link`;
  /// result[0] is its playback (join_time_s, home_cell and route ignored).
  /// The policy is reset() first. Throws std::invalid_argument unless
  /// exactly one client is given, or on null client fields.
  std::vector<PlaybackResult> run(std::span<const SessionClient> clients,
                                  const LinkModel& link,
                                  SessionObserver* observer = nullptr) const;

  /// Stepped run: every client to completion over the cells of `link`;
  /// result[i] corresponds to clients[i]. Policies are reset() first.
  /// Throws std::invalid_argument on null client fields, or on a home cell,
  /// route cell or route order that does not fit `link`.
  std::vector<PlaybackResult> run(std::span<const SessionClient> clients,
                                  const CellularLinkModel& link,
                                  SessionObserver* observer = nullptr) const;

 private:
  PlaybackResult run_analytic(const SessionClient& client, const LinkModel& link,
                              SessionObserver* observer) const;
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
