#include "eacs/abr/mpc.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace eacs::abr {
namespace {

/// Log-utility of a bitrate relative to the ladder floor (the MPC paper's
/// utility choice).
double utility(const media::BitrateLadder& ladder, std::size_t level) {
  return std::log(ladder.bitrate(level) / ladder.lowest_bitrate());
}

}  // namespace

Mpc::Mpc(std::size_t horizon) : horizon_(horizon) {
  if (horizon_ == 0) throw std::invalid_argument("Mpc: horizon must be > 0");
}

double Mpc::sequence_score(const player::AbrContext& context,
                           const std::vector<std::size_t>& levels,
                           double bandwidth_mbps) const {
  const auto& manifest = *context.manifest;
  const auto& ladder = manifest.ladder();
  double buffer = context.buffer_s;
  double score = 0.0;
  double prev_utility = context.prev_level.has_value()
                            ? utility(ladder, *context.prev_level)
                            : utility(ladder, levels.front());
  for (std::size_t k = 0; k < levels.size(); ++k) {
    const std::size_t segment = context.segment_index + k;
    if (segment >= manifest.num_segments()) break;
    const double size = manifest.segment_size_megabits(segment, levels[k]);
    const double download_s = size / bandwidth_mbps;
    double rebuffer = 0.0;
    if (download_s > buffer) {
      rebuffer = download_s - buffer;
      buffer = 0.0;
    } else {
      buffer -= download_s;
    }
    buffer += manifest.segment_duration(segment);
    const double u = utility(ladder, levels[k]);
    score += u - kRebufferPenalty * rebuffer -
             kSwitchPenalty * std::fabs(u - prev_utility);
    prev_utility = u;
  }
  return score;
}

std::size_t Mpc::choose_level(const player::AbrContext& context) {
  const auto& ladder = context.manifest->ladder();
  const double estimate = context.bandwidth->estimate();
  if (estimate <= 0.0) return ladder.lowest_level();
  const double bandwidth = estimate * kBandwidthDiscount;

  const std::size_t m = ladder.size();

  // Enumerate all m^horizon sequences via an odometer.
  std::vector<std::size_t> levels(horizon_, 0);
  std::size_t best_first = ladder.lowest_level();
  double best_score = -std::numeric_limits<double>::infinity();
  for (;;) {
    const double score = sequence_score(context, levels, bandwidth);
    if (score > best_score) {
      best_score = score;
      best_first = levels.front();
    }
    // Advance the odometer.
    std::size_t digit = 0;
    while (digit < horizon_) {
      if (++levels[digit] < m) break;
      levels[digit] = 0;
      ++digit;
    }
    if (digit == horizon_) break;
  }
  return best_first;
}

}  // namespace eacs::abr
