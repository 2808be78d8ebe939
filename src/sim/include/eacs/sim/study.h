#pragma once
// The shared harness of the session-level fault studies (DESIGN §6).
//
// The link-, sensor- and CDN-fault studies replay the five Table V sessions
// under a grid of fault points. This header holds what they share: the
// per-policy totals they report, the deterministic fan-out, and the fixture
// the sensor and CDN studies replay one policy per unit on (the link study's
// unit is Evaluation::run_session, the whole roster). Each study keeps only
// what its scenario means: its fault-spec builder, its seed rule, its extra
// columns and its deltas.

#include <cstddef>
#include <string>
#include <vector>

#include "eacs/core/objective.h"
#include "eacs/sim/evaluation.h"
#include "eacs/util/thread_pool.h"

namespace eacs::sim {

/// The Table V sessions with everything a study unit replays them through,
/// built once and shared read-only across the grid; each session's simulator
/// plays the evaluation's PlayerConfig.
struct StudySessions {
  explicit StudySessions(const EvaluationConfig& evaluation);

  qoe::QoeModel qoe_model;
  power::PowerModel power_model;
  core::Objective objective;  ///< Eq. 11 under the evaluation's alpha
  std::vector<trace::SessionTraces> sessions;
  std::vector<media::VideoManifest> manifests;        ///< one per session
  std::vector<player::PlayerSimulator> simulators;    ///< one per session

  std::size_t size() const noexcept { return sessions.size(); }

  /// compute_metrics for one playback of session `s`.
  SessionMetrics metrics(const std::string& algorithm, std::size_t s,
                         const player::PlaybackResult& playback) const;
};

/// One policy's totals over the study sessions.
struct StudyTotals {
  std::string algorithm;
  double mean_qoe = 0.0;           ///< mean across sessions
  double total_energy_j = 0.0;     ///< summed across sessions (incl. waste)
  double wasted_energy_j = 0.0;    ///< summed across sessions
  double rebuffer_s = 0.0;         ///< summed across sessions
  double mean_bitrate_mbps = 0.0;  ///< mean across sessions
  std::size_t retries = 0;
  std::size_t abandoned_segments = 0;

  /// Folds one session's metrics in; `sessions` is the count the means
  /// divide by.
  void add(const SessionMetrics& m, std::size_t sessions);
};

/// Runs unit(point, u) for every point in [0, points) and u in [0, units)
/// on `jobs` workers, then calls fold(point, u, result) on the calling
/// thread in point-major order — DESIGN §6 rule 3, "reduce serially, in
/// index order". Units run through util::parallel_map, so each must be a
/// pure function of its indices (seeds included); the fold order then makes
/// every floating-point sum bit-identical at any job count.
template <typename Unit, typename Fold>
void run_grid(std::size_t jobs, std::size_t points, std::size_t units,
              Unit&& unit, Fold&& fold) {
  const auto results =
      util::parallel_map(jobs, points * units, [&](std::size_t item) {
        return unit(item / units, item % units);
      });
  for (std::size_t item = 0; item < results.size(); ++item) {
    fold(item / units, item % units, results[item]);
  }
}

}  // namespace eacs::sim
