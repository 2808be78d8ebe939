#pragma once
// The online bitrate-selection algorithm (Section IV-B, Algorithm 1) — the
// paper's deployable contribution ("Ours" in the evaluation).
//
// Per segment:
//  1. estimate bandwidth (harmonic mean of past segment throughputs) and the
//     vibration level (trailing-window estimator over accelerometer data);
//  2. compute the reference bitrate: the ladder level minimising the Eq. 11
//     weighted cost under the estimates;
//  3. smooth the decision against the previous segment's bitrate:
//     - reference above previous: step up exactly one level (gradual ramp;
//       a consistently high reference walks the bitrate up to it);
//     - reference below previous: step down to the highest level in
//       [reference, previous) whose download fits in the current buffer
//       (size/bandwidth <= buffer); if none fits, jump to the reference;
//     - reference equals previous: keep it.

#include <memory>
#include <optional>

#include "eacs/core/decision_cache.h"
#include "eacs/core/objective.h"
#include "eacs/player/abr_policy.h"

namespace eacs::core {

/// Tunables for OnlineBitrateSelector.
struct OnlineOptions {
  std::size_t startup_level = 0;  ///< rung used before any throughput sample
  std::string display_name = "Ours";
  /// Algorithm 1's lines 5-10. Disabling jumps straight to the reference
  /// bitrate every segment (the ramp ablation bench) — more switches, larger
  /// switch impairments, occasional rebuffering on sudden upswings.
  bool smoothing = true;

  /// Optional decision memoization. The snapshot keys the *effective*
  /// environment (post degraded-context fallbacks) so the cached solve is
  /// pure in the key; with the default exact-key config decisions are
  /// bit-identical to uncached selection (certified by tests/differential/).
  /// Post-failure cooldown segments bypass the cache entirely — their cap
  /// depends on transient selector state outside the key. Share one cache
  /// per deterministic execution unit, never across threads.
  std::shared_ptr<DecisionCache> cache = nullptr;
};

/// Algorithm 1 as a player policy.
///
/// Replan-on-failure: when the player reports a failed/aborted download
/// (fault-injected runs), the selector enters a short cooldown during which
/// it suppresses ramp-ups and caps the choice one rung below the previous
/// segment — the online analogue of replanning around a dead link. The hook
/// is never invoked on fault-free runs, so their decisions are unchanged.
class OnlineBitrateSelector final : public player::AbrPolicy {
 public:
  using Options = OnlineOptions;

  /// Segments of conservative behaviour after a reported failure.
  static constexpr std::size_t kFailureCooldownSegments = 2;

  // Degraded-context fallbacks (consulted only when the AbrContext health
  // fields report trouble; clean runs never reach them).
  /// Vibration assumed when the accelerometer stream is kLost or the estimate
  /// is non-finite: a vibrating-commute prior (Table V: 2.46..6.83 m/s^2 on
  /// buses), so an unknown environment plans for the hostile case.
  static constexpr double kFallbackVibration = 4.0;
  /// Oldest signal reading the power model may still plan on. Beyond this age
  /// (or for a non-finite reading) the selector assumes the weak-signal floor
  /// below instead of a stale number that may be wildly optimistic.
  static constexpr double kMaxSignalAgeS = 30.0;
  static constexpr double kStaleSignalFloorDbm = -110.0;

  explicit OnlineBitrateSelector(Objective objective, Options options = {});

  std::string name() const override { return options_.display_name; }
  std::size_t choose_level(const player::AbrContext& context) override;
  void on_download_failure(const player::DownloadFailure& failure) override;
  void reset() override { failure_cooldown_ = 0; }

  const Objective& objective() const noexcept { return objective_; }

  /// Exposed for unit testing: the smoothing rule applied to a reference
  /// level given the previous level and feasibility data.
  static std::size_t smooth(std::size_t reference, std::size_t previous,
                            const TaskEnvironment& env, double bandwidth_mbps,
                            double buffer_s);

 private:
  TaskEnvironment environment_from(const player::AbrContext& context) const;

  /// The rung terms of `env`'s ladder: the stored ones while the ladder is
  /// the one last priced (same_ladder), else rebuilt and stored — a CBR
  /// session builds them once, a VBR task or a shorter last segment anew.
  const qoe::RungTerms& rungs_for(const TaskEnvironment& env);

  Objective objective_;
  Options options_;
  std::size_t failure_cooldown_ = 0;  ///< segments left of post-failure caution
  TaskEnvironment rung_ladder_;  ///< duration and sizes rungs_ were built on
  qoe::RungTerms rungs_;
};

}  // namespace eacs::core
