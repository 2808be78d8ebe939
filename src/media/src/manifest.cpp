#include "eacs/media/manifest.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace eacs::media {
namespace {

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace

double VbrModel::waveform(std::uint64_t video_hash, std::size_t segment_index) noexcept {
  // Two incommensurate sinusoids seeded by the video hash: smooth across
  // neighbouring segments (scene complexity is correlated in time) yet
  // deterministic and cheap.
  const double phase = static_cast<double>(video_hash % 1000003ULL);
  const double t = static_cast<double>(segment_index);
  return 0.6 * std::sin(0.37 * t + phase) + 0.4 * std::sin(0.113 * t + 2.0 * phase);
}

VideoManifest::VideoManifest(std::string video_id, double total_duration_s,
                             double segment_duration_s, BitrateLadder ladder,
                             VbrModel vbr)
    : video_id_(std::move(video_id)),
      total_duration_s_(total_duration_s),
      segment_duration_s_(segment_duration_s),
      ladder_(std::move(ladder)),
      vbr_(vbr),
      num_segments_(0),
      video_hash_(fnv1a(video_id_)) {
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!positive(total_duration_s_) || !positive(segment_duration_s_)) {
    throw std::invalid_argument("VideoManifest: durations must be finite and positive");
  }
  if (!(vbr_.amplitude >= 0.0 && vbr_.amplitude < 1.0)) {
    throw std::invalid_argument("VideoManifest: vbr amplitude must be in [0, 1)");
  }
  const double segments = std::ceil(total_duration_s_ / segment_duration_s_ - 1e-9);
  if (!(segments >= 1.0)) {
    throw std::invalid_argument("VideoManifest: durations give no segment");
  }
  if (!(segments <= static_cast<double>(kMaxSegments))) {
    throw std::invalid_argument("VideoManifest: more than " +
                                std::to_string(kMaxSegments) + " segments");
  }
  num_segments_ = static_cast<std::size_t>(segments);
  // One size factor per segment, so a size query costs one multiply instead
  // of the waveform's two sin calls.
  size_factor_.reserve(num_segments_);
  for (std::size_t i = 0; i < num_segments_; ++i) {
    size_factor_.push_back(1.0 + vbr_.amplitude * VbrModel::waveform(video_hash_, i));
  }
}

double VideoManifest::segment_duration(std::size_t index) const {
  if (index >= num_segments_) throw std::out_of_range("VideoManifest: segment index");
  const double start = static_cast<double>(index) * segment_duration_s_;
  return std::min(segment_duration_s_, total_duration_s_ - start);
}

double VideoManifest::segment_size_megabits(std::size_t index, std::size_t level) const {
  // segment_duration checks `index` before the table is read.
  const double nominal = ladder_.bitrate(level) * segment_duration(index);
  return nominal * size_factor_[index];
}

double VideoManifest::total_size_megabytes(std::size_t level) const {
  double megabits = 0.0;
  for (std::size_t i = 0; i < num_segments_; ++i) {
    megabits += segment_size_megabits(i, level);
  }
  return megabits / 8.0;
}

}  // namespace eacs::media
