#include "eacs/media/bitrate_ladder.h"

#include <algorithm>
#include <stdexcept>

namespace eacs::media {
namespace {

constexpr double kBitrateEpsilon = 1e-9;

}  // namespace

BitrateLadder::BitrateLadder(std::vector<BitrateRung> rungs) : rungs_(std::move(rungs)) {
  if (rungs_.empty()) throw std::invalid_argument("BitrateLadder: empty ladder");
  std::sort(rungs_.begin(), rungs_.end(),
            [](const BitrateRung& a, const BitrateRung& b) {
              return a.bitrate_mbps < b.bitrate_mbps;
            });
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    if (rungs_[i].bitrate_mbps <= 0.0) {
      throw std::invalid_argument("BitrateLadder: non-positive bitrate");
    }
    if (i > 0 &&
        rungs_[i].bitrate_mbps - rungs_[i - 1].bitrate_mbps < kBitrateEpsilon) {
      throw std::invalid_argument("BitrateLadder: duplicate bitrate");
    }
  }
}

std::vector<double> BitrateLadder::bitrates() const {
  std::vector<double> out;
  out.reserve(rungs_.size());
  for (const auto& rung : rungs_) out.push_back(rung.bitrate_mbps);
  return out;
}

std::optional<std::size_t> BitrateLadder::highest_level_not_above(
    double cap_mbps) const noexcept {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    if (rungs_[i].bitrate_mbps <= cap_mbps + kBitrateEpsilon) best = i;
  }
  return best;
}

std::optional<std::size_t> BitrateLadder::highest_level_below(
    double cap_mbps) const noexcept {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    if (rungs_[i].bitrate_mbps < cap_mbps - kBitrateEpsilon) best = i;
  }
  return best;
}

std::size_t BitrateLadder::clamp_level(long long level) const noexcept {
  if (level < 0) return 0;
  const auto max_level = static_cast<long long>(rungs_.size()) - 1;
  return static_cast<std::size_t>(std::min(level, max_level));
}

BitrateLadder BitrateLadder::table2() {
  return BitrateLadder({
      {0.10, "144p"},
      {0.375, "240p"},
      {0.75, "360p"},
      {1.50, "480p"},
      {3.00, "720p"},
      {5.80, "1080p"},
  });
}

BitrateLadder BitrateLadder::evaluation14() {
  return BitrateLadder({
      {0.10, "144p"},
      {0.20, ""},
      {0.24, ""},
      {0.375, "240p"},
      {0.55, ""},
      {0.75, "360p"},
      {1.00, ""},
      {1.50, "480p"},
      {2.30, ""},
      {2.56, ""},
      {3.00, "720p"},
      {3.60, ""},
      {4.30, ""},
      {5.80, "1080p"},
  });
}

}  // namespace eacs::media
