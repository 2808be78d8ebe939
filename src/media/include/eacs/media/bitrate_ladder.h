#pragma once
// DASH bitrate ladders.
//
// Two ladders appear in the paper:
//  * Table II's 6-rung subjective-study ladder (144p..1080p);
//  * the 14-rung evaluation ladder used in Section V's simulations:
//    {0.1, 0.2, 0.24, 0.375, 0.55, 0.75, 1.0, 1.5, 2.3, 2.56, 3.0, 3.6,
//     4.3, 5.8} Mbps.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace eacs::media {

/// One rung of a bitrate ladder.
struct BitrateRung {
  double bitrate_mbps = 0.0;
  std::string resolution;  ///< e.g. "1080p"; empty when the rung has no named
                           ///< resolution (intermediate evaluation rungs)
};

/// Ordered (ascending) set of available bitrates for a DASH stream.
class BitrateLadder {
 public:
  /// Builds a ladder from rungs; sorts ascending and rejects duplicates and
  /// non-positive bitrates (throws std::invalid_argument).
  explicit BitrateLadder(std::vector<BitrateRung> rungs);

  std::size_t size() const noexcept { return rungs_.size(); }
  const BitrateRung& rung(std::size_t level) const { return rungs_.at(level); }
  double bitrate(std::size_t level) const { return rungs_.at(level).bitrate_mbps; }

  std::size_t lowest_level() const noexcept { return 0; }
  std::size_t highest_level() const noexcept { return rungs_.size() - 1; }
  double lowest_bitrate() const { return rungs_.front().bitrate_mbps; }
  double highest_bitrate() const { return rungs_.back().bitrate_mbps; }

  /// All bitrates, ascending.
  std::vector<double> bitrates() const;

  /// Highest level whose bitrate is <= the cap; nullopt when even the lowest
  /// rung exceeds the cap.
  std::optional<std::size_t> highest_level_not_above(double cap_mbps) const noexcept;

  /// Highest level whose bitrate is strictly below the cap (FESTIVE's rule);
  /// nullopt when the lowest rung is not below the cap.
  std::optional<std::size_t> highest_level_below(double cap_mbps) const noexcept;

  /// Clamps a level index into the valid range.
  std::size_t clamp_level(long long level) const noexcept;

  /// The paper's Table II ladder (144p..1080p, 0.1..5.8 Mbps).
  static BitrateLadder table2();

  /// The paper's 14-rate evaluation ladder (Section V-A).
  static BitrateLadder evaluation14();

 private:
  std::vector<BitrateRung> rungs_;
};

}  // namespace eacs::media
