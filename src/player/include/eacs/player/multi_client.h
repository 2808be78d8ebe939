#pragma once
// Multi-client streaming over a shared bottleneck (extension).
//
// FESTIVE's original setting — several players competing for one link — is
// where fairness and stability of ABR algorithms show. This simulator runs
// K players against a shared capacity trace: at any instant the clients
// with an in-flight download share the capacity equally (TCP-fair
// processor sharing); each client keeps its own buffer, policy, estimators
// and context traces. The outcome is one standard PlaybackResult per
// client, so every existing metric applies, plus Jain's fairness index
// over the clients' mean bitrates.
//
// Integration is discrete-time (default 50 ms steps) with sub-step download
// completions resolved exactly; per-task timings are accurate to the step.
//
// The simulator is a thin configuration of the unified player::SessionEngine
// running a one-cell CellularLinkModel (session_engine.h); pass a
// SessionObserver to receive the per-event log of a run.

#include <cstddef>
#include <span>
#include <vector>

#include "eacs/media/manifest.h"
#include "eacs/player/abr_policy.h"
#include "eacs/player/player.h"
#include "eacs/player/session_engine.h"
#include "eacs/trace/session.h"
#include "eacs/trace/time_series.h"

namespace eacs::player {

/// Multi-client simulation knobs.
struct MultiClientConfig {
  double step_s = 0.05;        ///< integration step
  PlayerConfig player;         ///< per-client buffer configuration
  double max_session_s = 7200.0;  ///< hard stop (defensive)
};

/// One participating client. Alias of the engine's client descriptor: the
/// `context` supplies signal/accel traces (throughput ignored; the shared
/// link rules) and `join_time_s` staggers the client's start.
using ClientSetup = SessionClient;

/// Simulates K clients over one bottleneck.
class MultiClientSimulator {
 public:
  /// `shared_capacity_mbps` is the bottleneck rate over time.
  MultiClientSimulator(trace::TimeSeries shared_capacity_mbps,
                       MultiClientConfig config = {});

  const MultiClientConfig& config() const noexcept { return config_; }

  /// Runs all clients to completion; result[i] corresponds to clients[i].
  /// Throws std::invalid_argument on null manifest/policy pointers.
  std::vector<PlaybackResult> run(std::span<const ClientSetup> clients,
                                  SessionObserver* observer = nullptr) const;

 private:
  trace::TimeSeries capacity_;
  MultiClientConfig config_;
};

/// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1 = perfectly fair.
double jain_fairness(std::span<const double> xs);

}  // namespace eacs::player
