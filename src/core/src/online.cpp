#include "eacs/core/online.h"

#include <algorithm>
#include <cmath>

#include "eacs/core/cost_table.h"

namespace eacs::core {

OnlineBitrateSelector::OnlineBitrateSelector(Objective objective, Options options)
    : objective_(std::move(objective)), options_(std::move(options)) {}

TaskEnvironment OnlineBitrateSelector::environment_from(
    const player::AbrContext& context) const {
  TaskEnvironment env;
  env.index = context.segment_index;
  env.duration_s = context.manifest->segment_duration(context.segment_index);
  env.signal_dbm = context.signal_dbm;
  env.vibration = context.vibration_level;

  // Degraded-context fallbacks. Clean runs present healthy grades, finite
  // values and zero ages, so none of these branches fire and the environment
  // is exactly the measured context.
  using sensors::ContextHealth;
  if (context.vibration_health == ContextHealth::kLost ||
      !std::isfinite(env.vibration)) {
    // Vibration unknown: plan for the vibrating-commute prior rather than a
    // frozen or garbage estimate.
    env.vibration = kFallbackVibration;
  } else if (context.vibration_health == ContextHealth::kDegraded) {
    // Partially trustworthy: blend toward the prior by confidence.
    const double c = std::clamp(context.vibration_confidence, 0.0, 1.0);
    env.vibration = c * env.vibration + (1.0 - c) * kFallbackVibration;
  }
  if (!std::isfinite(env.signal_dbm) ||
      context.signal_health == ContextHealth::kLost ||
      context.signal_age_s > kMaxSignalAgeS) {
    // Signal too old to trust: assume the weak-signal floor so the power
    // model errs toward the expensive-radio case.
    env.signal_dbm = kStaleSignalFloorDbm;
  }
  env.bandwidth_mbps = context.bandwidth->estimate();
  const std::size_t levels = context.manifest->ladder().size();
  env.size_megabits.reserve(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    env.size_megabits.push_back(
        context.manifest->segment_size_megabits(context.segment_index, level));
  }
  return env;
}

const qoe::RungTerms& OnlineBitrateSelector::rungs_for(const TaskEnvironment& env) {
  if (!same_ladder(env, rung_ladder_)) {
    rungs_ = task_rungs(objective_, env);
    rung_ladder_.duration_s = env.duration_s;
    rung_ladder_.size_megabits = env.size_megabits;
  }
  return rungs_;
}

std::size_t OnlineBitrateSelector::smooth(std::size_t reference, std::size_t previous,
                                          const TaskEnvironment& env,
                                          double bandwidth_mbps, double buffer_s) {
  if (reference > previous) {
    // Gradual ramp-up: one ladder level per segment.
    return previous + 1;
  }
  if (reference < previous) {
    // Find the highest level below the previous one (down to the reference)
    // whose download completes before the buffer drains.
    for (std::size_t level = previous; level-- > reference;) {
      if (bandwidth_mbps > 0.0 &&
          env.size_megabits.at(level) / bandwidth_mbps <= buffer_s) {
        return level;
      }
    }
    return reference;
  }
  return previous;
}

void OnlineBitrateSelector::on_download_failure(
    const player::DownloadFailure& failure) {
  (void)failure;
  failure_cooldown_ = kFailureCooldownSegments;
}

std::size_t OnlineBitrateSelector::choose_level(const player::AbrContext& context) {
  const auto& ladder = context.manifest->ladder();
  if (context.bandwidth->observations() == 0) {
    // No throughput history yet: conservative startup rung.
    return ladder.clamp_level(static_cast<long long>(options_.startup_level));
  }

  TaskEnvironment env = environment_from(context);
  // Algorithm 1's decision as a function of the (effective) environment:
  // Eq. 11 reference level, then the smoothing rule. Factored so the cached
  // path below can run it on canonical representatives instead.
  const auto decide = [&](const TaskEnvironment& e, double buffer_s,
                          std::optional<std::size_t> prev_level) {
    const std::size_t reference =
        objective_.reference_level(e, buffer_s, rungs_for(e));
    if (options_.smoothing && prev_level.has_value()) {
      return ladder.clamp_level(static_cast<long long>(
          smooth(reference, *prev_level, e, e.bandwidth_mbps, buffer_s)));
    }
    return reference;
  };

  std::size_t chosen;
  if (options_.cache && failure_cooldown_ == 0) {
    // Memoized path: key the effective environment (fallbacks already
    // applied, so the solve is pure in the key) and solve on the canonical
    // representatives — a hit returns bit-identically what the cold solve of
    // the same key stored. Cooldown segments never reach here: their cap
    // depends on transient selector state outside the key.
    DecisionSnapshot snapshot;
    snapshot.buffer_s = context.buffer_s;
    snapshot.bandwidth_mbps = env.bandwidth_mbps;
    snapshot.vibration = env.vibration;
    snapshot.signal_dbm = env.signal_dbm;
    snapshot.segments_remaining = 1;
    snapshot.prev_level = context.prev_level;
    snapshot.ladder_id = hash_task_ladder({&env, 1});
    snapshot.alpha = objective_.config().alpha;
    const CanonicalDecision canonical = options_.cache->canonicalize(snapshot);
    chosen = options_.cache->level_for(
        canonical, [&](const CanonicalDecision& c) {
          env.vibration = c.vibration;
          env.signal_dbm = c.signal_dbm;
          env.bandwidth_mbps = c.bandwidth_mbps;
          return decide(env, c.buffer_s, c.prev_level);
        });
  } else {
    chosen = decide(env, context.buffer_s, context.prev_level);
  }

  // Replan-on-failure: while cooling down after a reported download failure,
  // never ramp up — cap one rung below the previous segment (or at it, when
  // already at the bottom). Fault-free runs never enter this branch.
  if (failure_cooldown_ > 0) {
    --failure_cooldown_;
    const std::size_t floor_level = ladder.lowest_level();
    std::size_t cap = context.prev_level.value_or(floor_level);
    if (cap > floor_level) --cap;
    chosen = std::min(chosen, cap);
  }
  return chosen;
}

}  // namespace eacs::core
