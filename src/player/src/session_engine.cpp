#include "eacs/player/session_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace eacs::player {
namespace {

constexpr double kStallEpsilon = 1e-9;

void emit_event(SessionObserver* observer, SessionEventType type, double t_s,
                std::size_t client, std::size_t segment = kNoIndex,
                std::size_t attempt = kNoIndex, std::size_t level = kNoIndex,
                double buffer_s = 0.0, double value = 0.0,
                std::size_t source = kNoIndex) {
  if (observer == nullptr) return;
  SessionEvent event;
  event.type = type;
  event.t_s = t_s;
  event.client = client;
  event.segment = segment;
  event.attempt = attempt;
  event.level = level;
  event.source = source;
  event.buffer_s = buffer_s;
  event.value = value;
  observer->on_event(event);
}

/// Emits kFaultTransition events as the engine clock crosses outage
/// boundaries. Pure observer plumbing: touches no simulation state.
class OutageTransitionEmitter {
 public:
  OutageTransitionEmitter(const std::vector<net::OutageWindow>* schedule,
                          SessionObserver* observer, std::size_t client)
      : schedule_(schedule), observer_(observer), client_(client) {}

  /// Reports every boundary up to `to` not yet reported.
  void advance_to(double to) {
    if (schedule_ == nullptr || observer_ == nullptr) return;
    while (index_ < schedule_->size()) {
      const auto& window = (*schedule_)[index_];
      if (!inside_) {
        if (window.start_s > to) break;
        emit_event(observer_, SessionEventType::kFaultTransition, window.start_s,
                   client_, kNoIndex, kNoIndex, kNoIndex, 0.0, 1.0);
        inside_ = true;
      } else {
        if (window.end_s > to) break;
        emit_event(observer_, SessionEventType::kFaultTransition, window.end_s,
                   client_, kNoIndex, kNoIndex, kNoIndex, 0.0, 0.0);
        inside_ = false;
        ++index_;
      }
    }
  }

 private:
  const std::vector<net::OutageWindow>* schedule_;
  SessionObserver* observer_;
  std::size_t client_;
  std::size_t index_ = 0;
  bool inside_ = false;
};

/// Throws std::invalid_argument when a time walk over `stream` stopped at
/// `index` because that sample's timestamp is NaN: every later walk would
/// stall there too.
template <typename Stream>
void reject_nan_stop(const Stream& stream, std::size_t index,
                     const char* what) {
  if (index < stream.size() && std::isnan(stream[index].t_s)) {
    throw std::invalid_argument(std::string(what) + " " +
                                std::to_string(index) + " has a NaN timestamp");
  }
}

long long signed_index(std::size_t value) {
  return value == kNoIndex ? -1 : static_cast<long long>(value);
}

/// The context the *policy* perceives on sensor-fault runs: the injector's
/// corrupted accel stream feeds a VibrationEstimator and a
/// SensorHealthMonitor, and its delivered signal readings replace the clean
/// trace lookup. Instantiated only when a client has an active
/// SensorFaultInjector — clean runs never construct one, which is what keeps
/// them bit-identical.
class PerceivedContext {
 public:
  PerceivedContext(const sensors::SensorFaultInjector& faults,
                   const sensors::VibrationConfig& vibration)
      : faults_(&faults), estimator_(vibration) {}

  /// Consumes every delivered sample/reading up to `t_s`.
  void advance_to(double t_s) {
    const auto& accel = faults_->accel();
    const std::size_t begin = accel_cursor_;
    while (accel_cursor_ < accel.size() && accel[accel_cursor_].t_s <= t_s) {
      ++accel_cursor_;
    }
    reject_nan_stop(accel, accel_cursor_,
                    "SessionEngine: perceived accel sample");
    const auto run = std::span(accel).subspan(begin, accel_cursor_ - begin);
    estimator_.consume(run);
    for (const auto& sample : run) health_.observe_accel(sample);
    const auto& signal = faults_->signal();
    while (signal_cursor_ < signal.size() && signal[signal_cursor_].t_s <= t_s) {
      health_.observe_signal(signal[signal_cursor_].t_s,
                             signal[signal_cursor_].dbm);
      ++signal_cursor_;
    }
    reject_nan_stop(signal, signal_cursor_,
                    "SessionEngine: perceived signal reading");
  }

  /// Perceived vibration at `t_s` (decays to the conservative prior while
  /// the corrupted stream is quiet). Always finite.
  double vibration_at(double t_s) const noexcept {
    return estimator_.level_at(t_s);
  }

  /// Overwrites the context's sensed fields with the perceived view.
  void fill(AbrContext& context, double t_s) const noexcept {
    context.vibration_level = vibration_at(t_s);
    context.signal_dbm = health_.last_signal_dbm();
    context.vibration_health = health_.accel_health(t_s);
    context.signal_health = health_.signal_health(t_s);
    context.vibration_confidence = health_.vibration_confidence(t_s);
    context.signal_age_s = health_.signal_age_s(t_s);
  }

 private:
  const sensors::SensorFaultInjector* faults_;
  sensors::VibrationEstimator estimator_;
  sensors::SensorHealthMonitor health_;
  std::size_t accel_cursor_ = 0;
  std::size_t signal_cursor_ = 0;
};

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The vibration track each client of a run reads: the client's own when
/// set, else one the run builds per distinct context and shares among the
/// clients on it. Tracks only read their trace, and a level after k samples
/// is the same whichever client fills it, so sharing moves no bits.
class RunTracks {
 public:
  explicit RunTracks(const sensors::VibrationConfig& config) : config_(config) {}

  sensors::VibrationTrack& for_client(const SessionClient& client) {
    if (client.vibration_track != nullptr) return *client.vibration_track;
    return built_.try_emplace(client.context, client.context->accel, config_)
        .first->second;
  }

 private:
  sensors::VibrationConfig config_;
  /// Node-based, so a track stays put while later contexts are added.
  std::unordered_map<const trace::SessionTraces*, sensors::VibrationTrack> built_;
};

/// The per-session adaptation runtime every mode shares — bandwidth
/// estimator, vibration clock, optional perceived-context rewire and the
/// optional stateful signal cursor. One construction path (this factory)
/// serves the solo analytic run, the stepped multi-client loop and the
/// cellular fleet path, which used to carry three divergent inline setups.
struct SessionRuntime {
  net::HarmonicMeanEstimator bandwidth;
  VibrationClock vibration;
  std::optional<PerceivedContext> perceived;  ///< active sensor faults only
  /// Stateful signal lookup (engaged unless reference_mode). Bit-identical
  /// to the cursorless linear_at.
  std::optional<trace::TimeSeriesCursor> signal_cursor;

  SessionRuntime(const SessionClient& client, sensors::VibrationTrack& track,
                 const PlayerConfig& config, bool reference_mode)
      : bandwidth(config.bandwidth_window), vibration(track) {
    if (client.sensor_faults != nullptr && client.sensor_faults->active()) {
      perceived.emplace(*client.sensor_faults, config.vibration);
    }
    if (!reference_mode) signal_cursor.emplace(client.context->signal_dbm);
  }

  /// Signal strength at `t_s` through the cursor when engaged.
  double signal_at(const SessionClient& client, double t_s) {
    return signal_cursor.has_value()
               ? signal_cursor->linear_at(t_s)
               : client.context->signal_dbm.linear_at(t_s);
  }

  /// Decision-time sensing: advances the vibration clock (and the perceived
  /// streams when sensor faults are active) to `now` and fills the sensed
  /// fields of `context`. Returns the *true* vibration level;
  /// context.vibration_level afterwards holds what the policy perceives.
  double sense(AbrContext& context, const SessionClient& client, double now) {
    const double true_vibration = vibration.advance_to(now);
    context.vibration_level = true_vibration;
    context.signal_dbm = signal_at(client, now);
    if (perceived.has_value()) {
      perceived->advance_to(now);
      perceived->fill(context, now);
    }
    return true_vibration;
  }
};

}  // namespace

const char* to_string(SessionEventType type) noexcept {
  switch (type) {
    case SessionEventType::kSessionStart: return "session_start";
    case SessionEventType::kClientJoin: return "client_join";
    case SessionEventType::kThrottleWait: return "throttle_wait";
    case SessionEventType::kRequestIssued: return "request_issued";
    case SessionEventType::kDownloadProgress: return "download_progress";
    case SessionEventType::kDownloadComplete: return "download_complete";
    case SessionEventType::kAttemptDeadline: return "attempt_deadline";
    case SessionEventType::kAttemptFailure: return "attempt_failure";
    case SessionEventType::kAttemptAbandoned: return "attempt_abandoned";
    case SessionEventType::kBackoffExpiry: return "backoff_expiry";
    case SessionEventType::kBufferDrain: return "buffer_drain";
    case SessionEventType::kStall: return "stall";
    case SessionEventType::kStartup: return "startup";
    case SessionEventType::kFaultTransition: return "fault_transition";
    case SessionEventType::kSourceFailover: return "source_failover";
    case SessionEventType::kHedgeIssued: return "hedge_issued";
    case SessionEventType::kHedgeComplete: return "hedge_complete";
    case SessionEventType::kBreakerTransition: return "breaker_transition";
    case SessionEventType::kCellHandoff: return "cell_handoff";
    case SessionEventType::kSessionEnd: return "session_end";
  }
  return "unknown";
}

// --- SessionTimeline --------------------------------------------------------

void SessionTimeline::on_event(const SessionEvent& event) {
  events_.push_back(event);
}

std::size_t SessionTimeline::count(SessionEventType type) const noexcept {
  std::size_t total = 0;
  for (const auto& event : events_) {
    if (event.type == type) ++total;
  }
  return total;
}

void SessionTimeline::write_csv(std::ostream& out) const {
  out << "t_s,client,event,segment,attempt,level,source,buffer_s,value\n";
  for (const auto& event : events_) {
    out << format_double(event.t_s) << ',' << signed_index(event.client) << ','
        << to_string(event.type) << ',' << signed_index(event.segment) << ','
        << signed_index(event.attempt) << ',' << signed_index(event.level) << ','
        << signed_index(event.source) << ',' << format_double(event.buffer_s)
        << ',' << format_double(event.value) << '\n';
  }
}

void SessionTimeline::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SessionTimeline: cannot open " + path);
  write_csv(out);
  if (!out.good()) throw std::runtime_error("SessionTimeline: failed writing " + path);
}

void SessionTimeline::write_json(std::ostream& out) const {
  out << "{\"events\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& event = events_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "  {\"t_s\": " << format_double(event.t_s)
        << ", \"client\": " << signed_index(event.client) << ", \"event\": \""
        << to_string(event.type) << "\", \"segment\": "
        << signed_index(event.segment) << ", \"attempt\": "
        << signed_index(event.attempt) << ", \"level\": "
        << signed_index(event.level) << ", \"source\": "
        << signed_index(event.source) << ", \"buffer_s\": "
        << format_double(event.buffer_s) << ", \"value\": "
        << format_double(event.value) << "}";
  }
  out << (events_.empty() ? "" : "\n") << "]}\n";
}

// --- VibrationClock ---------------------------------------------------------

double VibrationClock::advance_to(double t_s) {
  cursor_ = track_->advance(cursor_, t_s);
  reject_nan_stop(track_->trace(), cursor_, "VibrationClock: accel sample");
  level_ = track_->level_after(cursor_);
  return level_;
}

// --- Links ------------------------------------------------------------------

net::AttemptOutcome SoloLinkModel::attempt(std::size_t, std::size_t,
                                           double start_s,
                                           double size_megabits) const {
  net::AttemptOutcome outcome;
  outcome.result = downloader_.download(start_s, size_megabits);
  return outcome;
}

net::AttemptOutcome FaultLinkModel::attempt(std::size_t segment,
                                            std::size_t attempt, double start_s,
                                            double size_megabits) const {
  return faults_->attempt(segment, attempt, start_s, size_megabits);
}

CdnLinkModel::CdnLinkModel(std::span<const net::SegmentSource> sources)
    : sources_(sources) {
  if (sources_.empty()) {
    throw std::invalid_argument("CdnLinkModel: need at least one source");
  }
}

bool CdnLinkModel::unreliable() const noexcept {
  // A single trivial source cannot perturb anything: take the fast path.
  return sources_.size() > 1 || !sources_[0].trivial();
}

net::AttemptOutcome CdnLinkModel::attempt(std::size_t segment,
                                          std::size_t attempt, double start_s,
                                          double size_megabits) const {
  // Only reached on the fast path (single trivial source): a plain download
  // against the source's (bitwise-original) trace.
  net::AttemptOutcome outcome;
  outcome.result =
      sources_[0].attempt(segment, attempt, start_s, size_megabits).result;
  return outcome;
}

CellularLinkModel::CellularLinkModel(
    std::span<const trace::TimeSeries* const> cells)
    : cells_(cells.begin(), cells.end()) {
  if (cells_.empty()) {
    throw std::invalid_argument("CellularLinkModel: need at least one cell");
  }
  for (const auto* cell : cells_) {
    if (cell == nullptr || cell->empty()) {
      throw std::invalid_argument(
          "CellularLinkModel: null or empty cell capacity trace");
    }
  }
}

CellularLinkModel::CellularLinkModel(const trace::TimeSeries& capacity_mbps)
    : CellularLinkModel(std::array{&capacity_mbps}) {}

// --- SessionEngine ----------------------------------------------------------

SessionEngine::SessionEngine(SessionEngineConfig config) : config_(config) {
  require_valid_buffer("SessionEngine", config_.player.buffer_threshold_s,
                       config_.player.startup_buffer_s);
  sensors::require_valid_vibration("SessionEngine", config_.player.vibration);
  if (!(std::isfinite(config_.step_s) && config_.step_s > 0.0)) {
    throw std::invalid_argument("SessionEngine: step_s must be finite and > 0");
  }
  if (!(config_.max_session_s > 0.0)) {
    throw std::invalid_argument("SessionEngine: max_session_s must be > 0");
  }
}

namespace {

void require_fields(std::span<const SessionClient> clients,
                    const sensors::VibrationConfig& vibration) {
  for (const auto& client : clients) {
    if (client.manifest == nullptr || client.policy == nullptr ||
        client.context == nullptr) {
      throw std::invalid_argument("SessionEngine: null client fields");
    }
    const sensors::VibrationTrack* track = client.vibration_track;
    if (track == nullptr) continue;
    if (&track->trace() != &client.context->accel) {
      throw std::invalid_argument(
          "SessionEngine: vibration_track reads another trace than "
          "context->accel");
    }
    if (!(track->config() == vibration)) {
      throw std::invalid_argument(
          "SessionEngine: vibration_track has another config than "
          "player.vibration");
    }
  }
}

}  // namespace

// Stepped links: completion times depend on who else is downloading, so the
// engine integrates on a fixed grid (sub-step completions resolved exactly)
// and splits each cell's capacity equally among its in-flight clients. The
// cellular event-heap path runs every configuration except one-cell
// reference_mode, which keeps the pre-refactor loop that the differential
// harness certifies the cellular path against bit for bit.
std::vector<PlaybackResult> SessionEngine::run(
    std::span<const SessionClient> clients, const CellularLinkModel& link,
    SessionObserver* observer) const {
  require_fields(clients, config_.player.vibration);
  const auto cells = link.cells();
  for (const auto& client : clients) {
    if (client.home_cell >= cells.size()) {
      throw std::invalid_argument("SessionEngine: home_cell out of range");
    }
    if (std::isnan(client.join_time_s)) {
      throw std::invalid_argument("SessionEngine: join_time_s is NaN");
    }
    double prev_hop_s = -std::numeric_limits<double>::infinity();
    for (const auto& hop : client.route) {
      if (hop.cell >= cells.size()) {
        throw std::invalid_argument("SessionEngine: route cell out of range");
      }
      if (std::isnan(hop.t_s)) {
        throw std::invalid_argument("SessionEngine: route t_s is NaN");
      }
      if (hop.t_s < prev_hop_s) {
        throw std::invalid_argument("SessionEngine: route not sorted by time");
      }
      prev_hop_s = hop.t_s;
    }
  }
  if (config_.reference_mode && cells.size() == 1) {
    return run_stepped_reference(clients, *cells[0], observer);
  }
  return run_cells(clients, cells, observer);
}

// Analytic links: segments resolve sequentially in closed form. With a
// reliable link every attempt completes (the fault-free player semantics);
// an unreliable link engages a per-segment resilience state machine
// (deadlines, bounded retries with backoff, degradation, abandonment and the
// terminal rescue fetch): the CDN machine over the link's sources, else the
// single-source machine over its fault injector.
PlaybackResult SessionEngine::run(const SessionClient& client,
                                  const LinkModel& link,
                                  SessionObserver* observer) const {
  require_fields({&client, 1}, config_.player.vibration);
  AbrPolicy& policy = *client.policy;
  const media::VideoManifest& manifest = *client.manifest;
  const trace::SessionTraces& session = *client.context;

  policy.reset();
  const PlayerConfig& config = config_.player;
  const bool unreliable = link.unreliable();
  // Inner-loop fast paths. `fast` devirtualizes the reliable download: on a
  // certifiably trivial link every attempt() is a plain download() on that
  // downloader, so the per-segment virtual dispatch is skipped. The signal
  // cursor turns the per-segment signal lookups (which move almost
  // monotonically with the session clock) from full binary searches into
  // amortised O(1) walks. Both are bit-identical to the reference path —
  // tests/differential/ asserts it per scenario; reference_mode forces the
  // original code for that comparison.
  const net::SegmentDownloader* fast =
      (config_.reference_mode || unreliable) ? nullptr : link.fast_downloader();
  // Estimators, vibration clock, signal cursor and (when sensor faults are
  // attached AND active) the perceived-context rewire, all built by the one
  // construction path every mode shares.
  RunTracks tracks(config.vibration);
  SessionRuntime runtime(client, tracks.for_client(client), config,
                         config_.reference_mode);
  const std::size_t lowest = manifest.ladder().lowest_level();

  PlaybackResult result;
  result.tasks.reserve(manifest.num_segments());

  double now = 0.0;
  double buffer = 0.0;  // seconds of media buffered ahead of the play head
  bool playing = false;
  std::optional<std::size_t> prev_level;

  // What the engaged machine runs on. The CDN machine calls the sources,
  // and the origin (source 0) seeds its backoff jitter and carries the
  // outage schedule; the single-source machine calls the fault injector.
  const std::span<const net::SegmentSource> cdn_sources = link.sources();
  const bool cdn = unreliable && !cdn_sources.empty();
  const net::FaultInjector* const faults = link.faults();
  const std::vector<net::OutageWindow>* outage_schedule = nullptr;
  std::uint64_t backoff_seed = 0;
  if (cdn) {
    outage_schedule = &cdn_sources[0].outage_schedule();
    backoff_seed = cdn_sources[0].config().faults.seed;
  } else if (unreliable) {
    outage_schedule = &faults->outage_schedule();
    backoff_seed = faults->spec().seed;
  }
  OutageTransitionEmitter outages(outage_schedule, observer, 0);

  // Multi-source CDN runs: per-run failover state (breakers + EWMA scores)
  // lives in the selector; constructed only when the machine is engaged so
  // every other path stays untouched.
  std::optional<net::SourceSelector> selector;
  std::vector<net::BreakerState> breaker_seen;
  std::size_t active_source = 0;
  if (cdn) {
    selector.emplace(cdn_sources);
    breaker_seen.assign(cdn_sources.size(), net::BreakerState::kClosed);
  }

  emit_event(observer, SessionEventType::kSessionStart, 0.0, kNoIndex);
  emit_event(observer, SessionEventType::kClientJoin, 0.0, 0);

  for (std::size_t i = 0; i < manifest.num_segments(); ++i) {
    // Buffer throttle: above the threshold the player idles; playback keeps
    // draining the buffer during the idle period.
    if (playing && buffer > config.buffer_threshold_s) {
      const double wait = buffer - config.buffer_threshold_s;
      outages.advance_to(now + wait);
      now += wait;
      buffer = config.buffer_threshold_s;
      emit_event(observer, SessionEventType::kThrottleWait, now, 0, i, kNoIndex,
                 kNoIndex, buffer, wait);
    }

    AbrContext context;
    context.segment_index = i;
    context.num_segments = manifest.num_segments();
    context.now_s = now;
    context.buffer_s = buffer;
    context.startup_phase = !playing;
    context.prev_level = prev_level;
    context.manifest = &manifest;
    context.bandwidth = &runtime.bandwidth;
    const double vibration_level = runtime.sense(context, client, now);

    const std::size_t requested = manifest.ladder().clamp_level(
        static_cast<long long>(policy.choose_level(context)));

    TaskRecord task;
    task.segment_index = i;
    task.duration_s = manifest.segment_duration(i);
    task.vibration = vibration_level;
    task.perceived_vibration = context.vibration_level;
    task.buffer_before_s = context.buffer_s;
    task.startup = context.startup_phase;

    // Playback during wall time spent on this segment (downloads, backoffs,
    // aborted attempts) runs through the engine's single drain path.
    double stall_total = 0.0;
    const auto drain = [&](double dt) {
      const bool was_playing = playing;
      const double stall = drain_buffer(playing, buffer, dt);
      stall_total += stall;
      if (observer != nullptr && was_playing && dt > 0.0) {
        emit_event(observer, SessionEventType::kBufferDrain, now, 0, i, kNoIndex,
                   kNoIndex, buffer, dt);
        if (stall > 0.0) {
          emit_event(observer, SessionEventType::kStall, now, 0, i, kNoIndex,
                     kNoIndex, buffer, stall);
        }
      }
    };

    double wasted_megabits = 0.0;
    double wasted_signal_weight = 0.0;  // sum of (megabits * mean signal)
    double wasted_time = 0.0;
    double backoff_total = 0.0;
    bool abandoned = false;
    std::size_t attempt = 0;
    std::size_t level = requested;
    std::size_t serving = 0;        // CDN: source of the winning attempt
    std::size_t segment_hedges = 0; // CDN: hedged duplicates this segment
    net::DownloadResult success;

    // --- The retry ladder both resilience machines walk -----------------
    // Sets `level` to this attempt's rung (the policy's choice first, then
    // one rung down per retry, then the lowest rung from kDegradeAfter on)
    // and returns the attempt's size in megabits.
    const auto step_down = [&] {
      if (attempt == 0) {
        level = requested;
      } else if (attempt >= kDegradeAfter) {
        level = lowest;
      } else {
        level = requested > attempt ? std::max(lowest, requested - attempt)
                                    : lowest;
      }
      return manifest.segment_size_megabits(i, level);
    };
    // Abort accounting, part 1: `megabits` a transfer moved over
    // [from, until] and then lost are waste.
    const auto add_waste = [&](double megabits, double from, double until) {
      wasted_megabits += megabits;
      if (megabits > 0.0) {
        wasted_signal_weight +=
            megabits * session.signal_dbm.mean_over(from, until);
      }
      wasted_time += until - from;
    };
    // Abort accounting, part 2: the aborted round ends at `abort_at`; the
    // estimator sees its (near-zero) throughput and playback drains.
    const auto advance_abort = [&](double abort_at, double moved) {
      const double elapsed = abort_at - now;
      runtime.bandwidth.observe(elapsed > 0.0 ? moved / elapsed : 0.0);
      drain(elapsed);
      now = abort_at;
    };
    // The abandonment test: a healthy transfer that would outpace the
    // buffer drain (at most one abandonment per segment).
    const auto outpaces_buffer = [&](const net::DownloadResult& transfer) {
      return !abandoned && playing && level > lowest &&
             buffer < kAbandonMinBufferS &&
             transfer.duration_s() > kAbandonFactor * buffer &&
             now + kAbandonProbeS < transfer.end_s;
    };
    // The abandon step: probe briefly over `carrier` (the fault injector or
    // the CDN source), give the attempt up and re-request one rung lower
    // with no backoff.
    const auto abandon = [&](const auto& carrier, double size_megabits,
                             std::size_t source) {
      const double probe_end = now + kAbandonProbeS;
      const double moved =
          std::min(size_megabits, carrier.megabits_over(now, probe_end));
      outages.advance_to(probe_end);
      emit_event(observer, SessionEventType::kAttemptAbandoned, probe_end, 0,
                 i, attempt, level, buffer, moved, source);
      add_waste(moved, now, probe_end);
      advance_abort(probe_end, moved);
      abandoned = true;
      ++attempt;
    };
    // An attempt over `carrier` aborted at `abort_at` after moving `moved`
    // megabits: at its deadline (a timeout) or where it died (a failure).
    const auto report_abort = [&](const auto& carrier, bool timeout,
                                  double abort_at, double moved,
                                  std::size_t source) {
      outages.advance_to(abort_at);
      emit_event(observer,
                 timeout ? SessionEventType::kAttemptDeadline
                         : SessionEventType::kAttemptFailure,
                 abort_at, 0, i, attempt, level, buffer, moved, source);
      policy.on_download_failure(
          {i, attempt, abort_at, carrier.in_outage(abort_at)});
    };
    // Backoff before the next attempt; playback keeps draining the buffer.
    const auto back_off = [&] {
      const double wait = retry_backoff_s(backoff_seed, i, attempt);
      outages.advance_to(now + wait);
      drain(wait);
      now += wait;
      backoff_total += wait;
      emit_event(observer, SessionEventType::kBackoffExpiry, now, 0, i,
                 attempt, level, buffer, wait);
      ++attempt;
    };

    if (!unreliable) {
      const double size_megabits = manifest.segment_size_megabits(i, requested);
      emit_event(observer, SessionEventType::kRequestIssued, now, 0, i, 0,
                 requested, buffer, size_megabits);
      success = fast != nullptr ? fast->download(now, size_megabits)
                                : link.attempt(i, 0, now, size_megabits).result;
    } else if (cdn) {
      // --- Multi-source CDN failover machine ----------------------------
      // The single-source machine below generalised to N sources: the
      // selector picks the healthiest source per attempt (circuit breakers
      // + EWMA throughput scores), every abort feeds the breakers, and an
      // attempt the primary cannot resolve by the hedge point is duplicated
      // on the best backup — the first successful finisher wins and the
      // loser's bytes are priced as wasted download energy.
      net::SourceSelector& sel = *selector;
      constexpr double kNever = std::numeric_limits<double>::infinity();

      // Emits kBreakerTransition for every breaker whose state changed
      // since last reported.
      const auto note_breakers = [&](double t) {
        for (std::size_t s = 0; s < cdn_sources.size(); ++s) {
          const net::BreakerState st = sel.breaker(s).state();
          if (st != breaker_seen[s]) {
            breaker_seen[s] = st;
            ++result.breaker_transitions;
            emit_event(observer, SessionEventType::kBreakerTransition, t, 0, i,
                       attempt, level, buffer, static_cast<double>(st), s);
          }
        }
      };
      // Megabits a leg moved from its start up to `until`.
      const auto moved_by = [&](const net::SourceAttemptOutcome& leg,
                                const net::SegmentSource& src, double from,
                                double until, double size) {
        if (until <= from) return 0.0;
        if (leg.failed && leg.fail_at_s <= until) return size * leg.fail_fraction;
        if (leg.kind == net::CdnAttemptClass::kSlow) {
          return std::min(size, leg.result.mean_throughput_mbps * (until - from));
        }
        return std::min(size, src.megabits_over(from, until));
      };

      for (;;) {
        const double size_megabits = step_down();

        if (attempt >= kMaxRetries) {
          // Rescue fetch from the healthiest source: held open until it
          // completes; guarantees bounded retries and session termination.
          serving = sel.pick_primary(now);
          note_breakers(now);
          emit_event(observer, SessionEventType::kRequestIssued, now, 0, i,
                     attempt, level, buffer, size_megabits, serving);
          success = cdn_sources[serving].rescue(now, size_megabits);
          break;
        }

        const std::size_t primary = sel.pick_primary(now);
        note_breakers(now);
        if (primary != active_source) {
          ++result.total_failovers;
          emit_event(observer, SessionEventType::kSourceFailover, now, 0, i,
                     attempt, level, buffer,
                     static_cast<double>(active_source), primary);
          active_source = primary;
        }
        emit_event(observer, SessionEventType::kRequestIssued, now, 0, i,
                   attempt, level, buffer, size_megabits, primary);

        const auto p =
            cdn_sources[primary].attempt(i, attempt, now, size_megabits);
        const double deadline = now + kAttemptDeadlineS;
        const double hedge_at = now + kHedgeFraction * kAttemptDeadlineS;
        const double p_success_at = p.failed ? kNever : p.result.end_s;

        // Hedge: the primary is neither done nor terminally failed by the
        // hedge point and a healthy backup exists.
        bool hedged = false;
        std::size_t backup = 0;
        net::SourceAttemptOutcome h;
        if (config.hedge_enabled && cdn_sources.size() > 1 &&
            hedge_at < deadline && p_success_at > hedge_at &&
            !(p.failed && p.fail_at_s <= hedge_at)) {
          const auto pick = sel.pick_backup(hedge_at, primary);
          note_breakers(hedge_at);
          if (pick.has_value()) {
            backup = *pick;
            h = cdn_sources[backup].attempt(i, attempt, hedge_at, size_megabits);
            hedged = true;
            ++segment_hedges;
            ++result.total_hedges;
            emit_event(observer, SessionEventType::kHedgeIssued, hedge_at, 0,
                       i, attempt, level, buffer, size_megabits, backup);
          }
        }
        const double h_success_at = hedged && !h.failed ? h.result.end_s : kNever;

        // Winner: earliest successful completion within the deadline; an
        // exact tie goes to the primary.
        const bool p_wins =
            p_success_at <= deadline && p_success_at <= h_success_at;
        const bool h_wins = !p_wins && h_success_at <= deadline;

        if (p_wins || h_wins) {
          // Abandonment is considered only for an unhedged primary win —
          // identical semantics to the single-source machine.
          if (p_wins && !hedged && outpaces_buffer(p.result)) {
            abandon(cdn_sources[primary], size_megabits, primary);
            continue;
          }

          const double win_end = p_wins ? p_success_at : h_success_at;
          const std::size_t win_src = p_wins ? primary : backup;
          if (hedged) {
            // The losing leg is cancelled at the winner's completion; its
            // bytes are waste. A leg feeds its breaker when it actually
            // *failed*, or when it could not have met the attempt deadline
            // anyway (a timeout regardless of cancellation) — cancelling a
            // leg that was merely slower than the winner is not a server
            // fault.
            if (p_wins) {
              const double moved = moved_by(h, cdn_sources[backup], hedge_at,
                                            win_end, size_megabits);
              add_waste(moved, hedge_at, win_end);
              if (h.failed && h.fail_at_s <= win_end) {
                sel.record(backup, false, 0.0, h.fail_at_s);
              } else if (h_success_at > deadline) {
                sel.record(backup, false, 0.0, win_end);
              }
            } else {
              const double moved = moved_by(p, cdn_sources[primary], now,
                                            win_end, size_megabits);
              add_waste(moved, now, win_end);
              if (p.failed && p.fail_at_s <= win_end) {
                sel.record(primary, false, 0.0, p.fail_at_s);
              } else if (p_success_at > deadline) {
                sel.record(primary, false, 0.0, win_end);
              }
            }
            emit_event(observer, SessionEventType::kHedgeComplete, win_end, 0,
                       i, attempt, level, buffer, p_wins ? 0.0 : 1.0, win_src);
          }
          const net::DownloadResult& win = p_wins ? p.result : h.result;
          sel.record(win_src, true, win.mean_throughput_mbps, win_end);
          note_breakers(win_end);
          success = win;
          serving = win_src;
          break;
        }

        // No leg delivered by the deadline. Every leg terminally dead before
        // it: abort at the later death (a failure); otherwise the deadline
        // fires (a timeout).
        bool fail_abort = false;
        double abort_at = deadline;
        if (!hedged) {
          if (p.failed && p.fail_at_s <= deadline) {
            fail_abort = true;
            abort_at = p.fail_at_s;
          }
        } else if (p.failed && p.fail_at_s <= deadline && h.failed &&
                   h.fail_at_s <= deadline) {
          fail_abort = true;
          abort_at = std::max(p.fail_at_s, h.fail_at_s);
        }

        const auto leg_abort = [&](const net::SourceAttemptOutcome& leg,
                                   const net::SegmentSource& src,
                                   std::size_t src_index, double from) {
          const double until =
              leg.failed ? std::min(abort_at, leg.fail_at_s) : abort_at;
          const double moved = moved_by(leg, src, from, until, size_megabits);
          add_waste(moved, from, until);
          sel.record(src_index, false, 0.0, until);
          return moved;
        };
        double moved_total = leg_abort(p, cdn_sources[primary], primary, now);
        if (hedged) {
          moved_total += leg_abort(h, cdn_sources[backup], backup, hedge_at);
        }
        report_abort(cdn_sources[primary], !fail_abort, abort_at, moved_total,
                     primary);
        note_breakers(abort_at);
        advance_abort(abort_at, moved_total);
        back_off();
      }
      // ------------------------------------------------------------------
    } else {
      // --- Per-segment resilience state machine -------------------------
      const net::FaultInjector& injector = *faults;
      for (;;) {
        const double size_megabits = step_down();
        emit_event(observer, SessionEventType::kRequestIssued, now, 0, i,
                   attempt, level, buffer, size_megabits);

        if (attempt >= kMaxRetries) {
          // Rescue fetch: lowest-rung request held open until it completes
          // (no per-request faults; outages still slow it via the effective
          // trace). Guarantees bounded retries and session termination.
          success = injector.downloader().download(now, size_megabits);
          break;
        }

        const auto outcome = injector.attempt(i, attempt, now, size_megabits);
        const double deadline = now + kAttemptDeadlineS;
        const double resolves_at =
            outcome.failed ? outcome.fail_at_s : outcome.result.end_s;
        const bool timeout = resolves_at > deadline;

        if (!timeout && !outcome.failed) {
          if (!outpaces_buffer(outcome.result)) {
            success = outcome.result;
            break;
          }
          abandon(injector, size_megabits, kNoIndex);
          continue;
        }

        // An attempt that would resolve past the deadline (an outage, a
        // stuck transfer, or a late failure) times out there, having moved
        // what the link carried; otherwise it died mid-flight at fail_at_s.
        const double abort_at = timeout ? deadline : outcome.fail_at_s;
        const double moved =
            !timeout          ? size_megabits * outcome.fail_fraction
            : outcome.stalled ? std::min(size_megabits,
                                         outcome.result.mean_throughput_mbps *
                                             kAttemptDeadlineS)
                              : std::min(size_megabits,
                                         injector.megabits_over(now, deadline));
        report_abort(injector, timeout, abort_at, moved, kNoIndex);
        add_waste(moved, now, abort_at);
        advance_abort(abort_at, moved);
        back_off();
      }
      // ------------------------------------------------------------------
    }

    // Wall time this segment's winning transfer occupied. On non-CDN paths
    // success.start_s == now bit-for-bit, so this equals duration_s(); a
    // hedge winner starts at the hedge point, after `now`.
    const double download_time = success.end_s - now;
    outages.advance_to(success.end_s);
    drain(download_time);
    now = success.end_s;
    buffer += manifest.segment_duration(i);

    task.level = level;
    task.bitrate_mbps = manifest.ladder().bitrate(level);
    task.size_mb = success.size_megabits / 8.0;
    task.download_start_s = success.start_s;
    task.download_end_s = success.end_s;
    task.throughput_mbps = success.mean_throughput_mbps;
    task.signal_dbm =
        download_time > 0.0
            ? session.signal_dbm.mean_over(success.start_s, success.end_s)
            : runtime.signal_at(client, success.start_s);
    task.rebuffer_s = stall_total;
    task.retries = attempt;
    task.abandoned = abandoned;
    task.wasted_mb = wasted_megabits / 8.0;
    task.wasted_download_s = wasted_time;
    task.wasted_signal_dbm =
        wasted_megabits > 0.0 ? wasted_signal_weight / wasted_megabits : -90.0;
    task.backoff_s = backoff_total;
    task.source = serving;
    task.hedges = segment_hedges;

    if (stall_total > kStallEpsilon) {
      result.total_rebuffer_s += stall_total;
      ++result.rebuffer_events;
    }
    if (prev_level.has_value() && *prev_level != level) ++result.switch_count;
    prev_level = level;

    runtime.bandwidth.observe(success.mean_throughput_mbps);
    result.total_retries += attempt;
    if (abandoned) ++result.abandoned_segments;
    result.total_wasted_mb += task.wasted_mb;
    result.total_backoff_s += backoff_total;
    result.tasks.push_back(task);

    emit_event(observer, SessionEventType::kDownloadComplete, now, 0, i,
               attempt, level, buffer, success.mean_throughput_mbps);

    // Startup transition: playback begins once enough media is buffered.
    if (!playing && buffer >= config.startup_buffer_s) {
      playing = true;
      result.startup_delay_s = now;
      emit_event(observer, SessionEventType::kStartup, now, 0, i, kNoIndex,
                 kNoIndex, buffer);
    }
  }

  // Short video that never reached the startup buffer: playback begins when
  // everything is downloaded.
  if (!playing) result.startup_delay_s = now;

  // The remaining buffer plays out after the last download.
  result.session_end_s = now + buffer;
  outages.advance_to(result.session_end_s);
  emit_event(observer, SessionEventType::kSessionEnd, result.session_end_s,
             kNoIndex);
  return result;
}

namespace {

/// Per-client state for the stepped (shared-link / cellular) modes.
struct SteppedClientState {
  const SessionClient* setup = nullptr;
  SessionRuntime runtime;  ///< the shared construction path (see above)
  double perceived_at_request = 0.0;
  std::size_t cell = 0;  ///< current serving cell (cellular runs)

  std::size_t next_segment = 0;
  double buffer_s = 0.0;
  bool playing = false;
  bool joined = false;
  bool finished_downloading = false;
  double playback_finish_s = 0.0;  ///< last download end + remaining buffer
  std::optional<std::size_t> prev_level;

  // In-flight download.
  bool downloading = false;
  std::size_t level = 0;
  double remaining_megabits = 0.0;
  double download_start_s = 0.0;
  double size_megabits = 0.0;
  double buffer_at_request = 0.0;
  bool startup_at_request = true;
  double stall_s = 0.0;  // stall accumulated while waiting for this segment

  PlaybackResult result;

  SteppedClientState(const SessionClient& client, sensors::VibrationTrack& track,
                     const PlayerConfig& config, bool reference_mode)
      : setup(&client),
        runtime(client, track, config, reference_mode),
        cell(client.home_cell) {}
};

/// Consults the policy and opens the next download. Shared verbatim between
/// the reference loop and the cellular path, so the two can only diverge in
/// loop structure — which is exactly what the differential harness certifies.
void stepped_request_next(SteppedClientState& state, std::size_t index,
                          double now, SessionObserver* observer) {
  const auto& manifest = *state.setup->manifest;
  AbrContext context;
  context.segment_index = state.next_segment;
  context.num_segments = manifest.num_segments();
  context.now_s = now;
  context.buffer_s = state.buffer_s;
  context.startup_phase = !state.playing;
  context.prev_level = state.prev_level;
  context.manifest = &manifest;
  context.bandwidth = &state.runtime.bandwidth;
  state.runtime.sense(context, *state.setup, now);
  state.perceived_at_request = context.vibration_level;

  state.level = manifest.ladder().clamp_level(
      static_cast<long long>(state.setup->policy->choose_level(context)));
  state.size_megabits =
      manifest.segment_size_megabits(state.next_segment, state.level);
  state.remaining_megabits = state.size_megabits;
  state.download_start_s = now;
  state.buffer_at_request = state.buffer_s;
  state.startup_at_request = context.startup_phase;
  state.stall_s = 0.0;
  state.downloading = true;
  emit_event(observer, SessionEventType::kRequestIssued, now, index,
             state.next_segment, 0, state.level, state.buffer_s,
             state.size_megabits);
}

/// Books a finished download: task record, totals, startup transition.
/// Shared between the reference loop and the cellular path.
void stepped_complete_download(SteppedClientState& state, std::size_t index,
                               double end_s, const PlayerConfig& player_config,
                               SessionObserver* observer) {
  const auto& manifest = *state.setup->manifest;
  state.downloading = false;
  state.buffer_s += manifest.segment_duration(state.next_segment);

  TaskRecord task;
  task.segment_index = state.next_segment;
  task.level = state.level;
  task.bitrate_mbps = manifest.ladder().bitrate(state.level);
  task.size_mb = state.size_megabits / 8.0;
  task.duration_s = manifest.segment_duration(state.next_segment);
  task.download_start_s = state.download_start_s;
  task.download_end_s = end_s;
  const double elapsed = std::max(1e-9, end_s - state.download_start_s);
  task.throughput_mbps = state.size_megabits / elapsed;
  task.signal_dbm = state.setup->context->signal_dbm.mean_over(
      state.download_start_s, std::max(end_s, state.download_start_s + 1e-6));
  task.vibration = state.runtime.vibration.level();
  task.perceived_vibration = state.runtime.perceived.has_value()
                                 ? state.perceived_at_request
                                 : task.vibration;
  task.buffer_before_s = state.buffer_at_request;
  task.rebuffer_s = state.stall_s;
  task.startup = state.startup_at_request;

  if (state.stall_s > kStallEpsilon) {
    state.result.total_rebuffer_s += state.stall_s;
    ++state.result.rebuffer_events;
  }
  if (state.prev_level.has_value() && *state.prev_level != state.level) {
    ++state.result.switch_count;
  }
  state.prev_level = state.level;
  state.runtime.bandwidth.observe(task.throughput_mbps);
  state.result.tasks.push_back(task);
  emit_event(observer, SessionEventType::kDownloadComplete, end_s, index,
             state.next_segment, 0, state.level, state.buffer_s,
             task.throughput_mbps);

  ++state.next_segment;
  if (state.next_segment >= manifest.num_segments()) {
    state.finished_downloading = true;
    // Nothing left to wait for: playback ends once the buffer drains.
    state.playback_finish_s = end_s + state.buffer_s;
  }
  if (!state.playing && state.buffer_s >= player_config.startup_buffer_s) {
    state.playing = true;
    state.result.startup_delay_s = end_s;
    emit_event(observer, SessionEventType::kStartup, end_s, index,
               task.segment_index, kNoIndex, kNoIndex, state.buffer_s);
  }
}

}  // namespace

// The pre-refactor single-bottleneck loop, preserved as the certification
// reference for the cellular path.
std::vector<PlaybackResult> SessionEngine::run_stepped_reference(
    std::span<const SessionClient> clients,
    const trace::TimeSeries& capacity_mbps, SessionObserver* observer) const {
  const PlayerConfig& player_config = config_.player;
  RunTracks tracks(player_config.vibration);
  std::vector<SteppedClientState> states;
  states.reserve(clients.size());
  for (const auto& client : clients) {
    states.emplace_back(client, tracks.for_client(client), player_config,
                        config_.reference_mode);
    client.policy->reset();
  }

  emit_event(observer, SessionEventType::kSessionStart, 0.0, kNoIndex);

  const double dt = config_.step_s;
  double now = 0.0;
  for (; now < config_.max_session_s; now += dt) {
    // 1. Activate clients: start a download if joined, not finished, not
    //    already downloading, and the buffer is at/below the threshold.
    for (std::size_t c = 0; c < states.size(); ++c) {
      auto& state = states[c];
      if (state.finished_downloading || state.downloading) continue;
      if (now < state.setup->join_time_s) continue;
      if (!state.joined) {
        state.joined = true;
        emit_event(observer, SessionEventType::kClientJoin, now, c);
      }
      if (state.playing && state.buffer_s > player_config.buffer_threshold_s) {
        continue;  // throttled; the buffer drains below
      }
      stepped_request_next(state, c, now, observer);
    }

    // 2. Share the link among active downloads.
    std::size_t active = 0;
    for (const auto& state : states) {
      if (state.downloading) ++active;
    }
    const double capacity = std::max(0.0, capacity_mbps.linear_at(now));
    const double share = active > 0 ? capacity / static_cast<double>(active) : 0.0;

    // 3. Advance downloads (sub-step completion resolved exactly) and
    //    playback.
    for (std::size_t c = 0; c < states.size(); ++c) {
      auto& state = states[c];
      const double play_time = dt;  // playback advances the full step
      if (state.downloading && share > 0.0) {
        const double deliverable = share * dt;
        if (state.remaining_megabits <= deliverable) {
          const double finish = now + state.remaining_megabits / share;
          state.remaining_megabits = 0.0;
          stepped_complete_download(state, c, finish, player_config, observer);
        } else {
          state.remaining_megabits -= deliverable;
          emit_event(observer, SessionEventType::kDownloadProgress, now, c,
                     state.next_segment, 0, state.level, state.buffer_s,
                     deliverable);
        }
      }
      // Playback drain & stalls (the engine's single drain path). Stall time
      // is attributed to a segment only while one is actually in flight.
      const double stall = drain_buffer(state.playing, state.buffer_s, play_time);
      if (stall > 0.0) {
        if (state.downloading) state.stall_s += stall;
        emit_event(observer, SessionEventType::kStall, now, c,
                   state.next_segment, kNoIndex, kNoIndex, state.buffer_s, stall);
      }
    }

    // 4. Termination: every client finished downloading.
    bool all_done = true;
    for (const auto& state : states) {
      if (!state.finished_downloading) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
  }

  std::vector<PlaybackResult> results;
  results.reserve(states.size());
  for (auto& state : states) {
    if (!state.playing) state.result.startup_delay_s = now;
    state.result.session_end_s =
        state.finished_downloading ? state.playback_finish_s : now + state.buffer_s;
    results.push_back(std::move(state.result));
  }
  emit_event(observer, SessionEventType::kSessionEnd, now, kNoIndex);
  return results;
}

namespace {

/// Per-cell runtime for the cellular path.
struct CellRuntime {
  const trace::TimeSeries* capacity = nullptr;
  std::optional<trace::TimeSeriesCursor> cursor;
  std::vector<std::size_t> members;  ///< client indices, ascending
  bool scheduled = false;            ///< has a pending entry in the heap
  double exit_s = 0.0;               ///< clock when the cell stopped stepping
};

/// One scheduled handoff, flattened from the clients' routes.
struct PendingHop {
  double t_s = 0.0;
  std::size_t client = 0;
  std::size_t cell = 0;
};

}  // namespace

// The cellular path. Each base station is a processor-shared bottleneck that
// advances its members with the same per-step phases as the reference loop;
// a global binary heap keyed (step, cell) orders the work, so a cell whose
// members all finished (or that has no members) is simply never scheduled —
// the live set, not the fleet size, is what costs. All cells share one step
// grid whose clock accumulates by repeated `+ dt` exactly like the serial
// loop, which is what makes the single-cell configuration bit-identical to
// run_stepped_reference (certified in tests/differential/).
//
// Handoffs are applied at step edges, before any cell processes the step, in
// client index order; an in-flight download carries its remaining megabits
// into the new cell and simply competes for the new bottleneck from the next
// step on. A handoff into a dormant cell wakes it at the current step.
std::vector<PlaybackResult> SessionEngine::run_cells(
    std::span<const SessionClient> clients,
    std::span<const trace::TimeSeries* const> cell_traces,
    SessionObserver* observer) const {
  const PlayerConfig& player_config = config_.player;
  const double dt = config_.step_s;

  RunTracks tracks(player_config.vibration);
  std::vector<SteppedClientState> states;
  states.reserve(clients.size());
  for (const auto& client : clients) {
    states.emplace_back(client, tracks.for_client(client), player_config,
                        config_.reference_mode);
    client.policy->reset();
  }

  std::vector<CellRuntime> cells(cell_traces.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].capacity = cell_traces[i];
    if (!config_.reference_mode) cells[i].cursor.emplace(*cell_traces[i]);
  }
  for (std::size_t c = 0; c < states.size(); ++c) {
    cells[states[c].cell].members.push_back(c);  // ascending: c is increasing
  }

  // Flatten the routes into one hop list ordered by time; a stable sort
  // keeps each client's route order at equal timestamps.
  std::vector<PendingHop> hops;
  for (std::size_t c = 0; c < states.size(); ++c) {
    for (const CellHop& hop : clients[c].route) {
      hops.push_back({hop.t_s, c, hop.cell});
    }
  }
  std::stable_sort(hops.begin(), hops.end(),
                   [](const PendingHop& a, const PendingHop& b) {
                     return a.t_s < b.t_s;
                   });
  std::size_t next_hop = 0;

  // Global (step, cell) min-heap; ties resolve by cell index, members within
  // a cell by client index — the same deterministic ordering contract the
  // serial loop provides.
  using StepEntry = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<StepEntry, std::vector<StepEntry>, std::greater<StepEntry>>
      queue;
  const auto schedule = [&](std::size_t cell, std::uint64_t step) {
    if (!cells[cell].scheduled) {
      cells[cell].scheduled = true;
      queue.push({step, cell});
    }
  };

  // Shared step grid: grid[k] accumulates by repeated `+ dt`, so a cell's
  // clock at step k is bit-identical to the serial loop's `now` after k
  // iterations — whatever order cells are processed in.
  std::vector<double> grid{0.0};
  const auto grid_time = [&](std::uint64_t step) {
    while (grid.size() <= step) grid.push_back(grid.back() + dt);
    return grid[static_cast<std::size_t>(step)];
  };

  emit_event(observer, SessionEventType::kSessionStart, 0.0, kNoIndex);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].members.empty()) schedule(i, 0);
  }

  double global_exit_s = 0.0;
  constexpr std::uint64_t kNoStep = ~std::uint64_t{0};
  std::uint64_t hops_checked_step = kNoStep;
  std::vector<PendingHop> due;  // reused per step edge

  while (!queue.empty()) {
    const auto [step, cell_index] = queue.top();
    queue.pop();
    CellRuntime& cell = cells[cell_index];
    cell.scheduled = false;
    const double now = grid_time(step);

    // Apply handoffs once per step edge, before any cell processes it.
    // Several hops landing on the same edge apply in client index order. A
    // hop can wake a dormant lower-indexed cell at this very step, so
    // re-enter the heap afterwards to restore (step, cell) processing order.
    if (step != hops_checked_step) {
      hops_checked_step = step;
      bool moved = false;
      if (now < config_.max_session_s) {
        due.clear();
        while (next_hop < hops.size() && hops[next_hop].t_s <= now) {
          due.push_back(hops[next_hop++]);
        }
        std::stable_sort(due.begin(), due.end(),
                         [](const PendingHop& a, const PendingHop& b) {
                           return a.client < b.client;
                         });
        for (const PendingHop& hop : due) {
          auto& state = states[hop.client];
          const std::size_t from = state.cell;
          if (from == hop.cell) continue;  // self-handoff: no-op
          auto& old_members = cells[from].members;
          old_members.erase(
              std::find(old_members.begin(), old_members.end(), hop.client));
          auto& new_members = cells[hop.cell].members;
          new_members.insert(std::upper_bound(new_members.begin(),
                                              new_members.end(), hop.client),
                             hop.client);
          state.cell = hop.cell;
          ++state.result.cell_handoffs;
          emit_event(observer, SessionEventType::kCellHandoff, now, hop.client,
                     state.downloading ? state.next_segment : kNoIndex,
                     kNoIndex, kNoIndex, state.buffer_s,
                     static_cast<double>(from), hop.cell);
          // Wake the destination for this step if it still has work to do.
          if (!state.finished_downloading) schedule(hop.cell, step);
          moved = true;
        }
      }
      if (moved) {
        // Membership changed: re-enter the heap so the smallest (step, cell)
        // — possibly a freshly woken cell — processes first.
        schedule(cell_index, step);
        continue;
      }
    }

    // Hard stop: mirror the serial loop's `now < max_session_s` guard, which
    // exits with the clock already advanced past the last executed step.
    if (now >= config_.max_session_s) {
      cell.exit_s = now;
      global_exit_s = std::max(global_exit_s, now);
      continue;
    }

    // 1. Activate members: start a download if joined, not finished, not
    //    already downloading, and the buffer is at/below the threshold.
    for (const std::size_t c : cell.members) {
      auto& state = states[c];
      if (state.finished_downloading || state.downloading) continue;
      if (now < state.setup->join_time_s) continue;
      if (!state.joined) {
        state.joined = true;
        emit_event(observer, SessionEventType::kClientJoin, now, c);
      }
      if (state.playing && state.buffer_s > player_config.buffer_threshold_s) {
        continue;  // throttled; the buffer drains below
      }
      stepped_request_next(state, c, now, observer);
    }

    // 2. Share this cell's capacity among its active downloads.
    std::size_t active = 0;
    for (const std::size_t c : cell.members) {
      if (states[c].downloading) ++active;
    }
    const double capacity =
        std::max(0.0, cell.cursor.has_value() ? cell.cursor->linear_at(now)
                                              : cell.capacity->linear_at(now));
    const double share = active > 0 ? capacity / static_cast<double>(active) : 0.0;

    // 3. Advance downloads (sub-step completion resolved exactly) and
    //    playback.
    for (const std::size_t c : cell.members) {
      auto& state = states[c];
      const double play_time = dt;  // playback advances the full step
      if (state.downloading && share > 0.0) {
        const double deliverable = share * dt;
        if (state.remaining_megabits <= deliverable) {
          const double finish = now + state.remaining_megabits / share;
          state.remaining_megabits = 0.0;
          stepped_complete_download(state, c, finish, player_config, observer);
        } else {
          state.remaining_megabits -= deliverable;
          emit_event(observer, SessionEventType::kDownloadProgress, now, c,
                     state.next_segment, 0, state.level, state.buffer_s,
                     deliverable);
        }
      }
      // Playback drain & stalls (the engine's single drain path). Stall time
      // is attributed to a segment only while one is actually in flight.
      const double stall = drain_buffer(state.playing, state.buffer_s, play_time);
      if (stall > 0.0) {
        if (state.downloading) state.stall_s += stall;
        emit_event(observer, SessionEventType::kStall, now, c,
                   state.next_segment, kNoIndex, kNoIndex, state.buffer_s, stall);
      }
    }

    // 4. Cell termination: every member finished downloading (vacuously true
    //    for an emptied cell) parks the cell; otherwise step again.
    bool all_done = true;
    for (const std::size_t c : cell.members) {
      if (!states[c].finished_downloading) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      cell.exit_s = now;
      global_exit_s = std::max(global_exit_s, now);
    } else {
      schedule(cell_index, step + 1);
    }
  }

  std::vector<PlaybackResult> results;
  results.reserve(states.size());
  for (auto& state : states) {
    // Unfinished clients (hard stop) end at their own cell's exit clock.
    const double end_now = cells[state.cell].exit_s;
    if (!state.playing) state.result.startup_delay_s = end_now;
    state.result.session_end_s = state.finished_downloading
                                     ? state.playback_finish_s
                                     : end_now + state.buffer_s;
    results.push_back(std::move(state.result));
  }
  emit_event(observer, SessionEventType::kSessionEnd, global_exit_s, kNoIndex);
  return results;
}

}  // namespace eacs::player
