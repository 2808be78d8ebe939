#pragma once
// DASH-style video manifest: a fixed segment duration, a bitrate ladder and a
// per-segment size model. Mirrors the subset of an MPEG-DASH MPD that the
// bitrate-adaptation algorithms consume.

#include <cstddef>
#include <string>
#include <vector>

#include "eacs/media/bitrate_ladder.h"

namespace eacs::media {

/// Per-segment encoder variability model.
///
/// Real encoders produce variable-bitrate segments: scene complexity makes a
/// nominal-R segment larger or smaller than R*duration. We model size as
/// nominal * (1 + vbr_amplitude * w(index)) where w is a deterministic smooth
/// pseudo-random waveform in [-1, 1] derived from (video id, segment index) —
/// so sizes are reproducible from the manifest's fields alone.
struct VbrModel {
  double amplitude = 0.0;  ///< 0 disables VBR (CBR sizes)

  /// Deterministic waveform value in [-1, 1].
  static double waveform(std::uint64_t video_hash, std::size_t segment_index) noexcept;
};

/// Immutable description of one adaptive stream.
class VideoManifest {
 public:
  /// The most segments a manifest may have. It tabulates one size factor
  /// per segment at construction, so the cap bounds that table at 8 MB and
  /// keeps a hostile MPD from sizing one it cannot allocate; a million
  /// segments is 11.6 days of 1 s segments (the longest Table V video is
  /// 612 s).
  static constexpr std::size_t kMaxSegments = 1'000'000;

  /// Throws std::invalid_argument on durations that are not finite and
  /// positive, an amplitude outside [0, 1) (NaN included), no segment at
  /// all (a total duration within 1e-9 segments of zero), or more than
  /// kMaxSegments segments.
  VideoManifest(std::string video_id, double total_duration_s, double segment_duration_s,
                BitrateLadder ladder, VbrModel vbr = {});

  const std::string& video_id() const noexcept { return video_id_; }

  /// Candidate delivery origins for every segment (MPD <BaseURL> elements,
  /// in document order — the first is the default origin). Empty when the
  /// manifest names a single implicit origin. Multi-source playback builds
  /// one net::SegmentSource per entry.
  const std::vector<std::string>& base_urls() const noexcept { return base_urls_; }
  void set_base_urls(std::vector<std::string> urls) { base_urls_ = std::move(urls); }
  double total_duration_s() const noexcept { return total_duration_s_; }
  double segment_duration_s() const noexcept { return segment_duration_s_; }
  const BitrateLadder& ladder() const noexcept { return ladder_; }
  const VbrModel& vbr() const noexcept { return vbr_; }

  /// Number of segments (last segment may be shorter than the nominal
  /// duration to cover the tail of the stream).
  std::size_t num_segments() const noexcept { return num_segments_; }

  /// Playback duration of segment `index`.
  double segment_duration(std::size_t index) const;

  /// Size in megabits of segment `index` at ladder level `level`.
  double segment_size_megabits(std::size_t index, std::size_t level) const;

  /// Total size in megabytes if every segment used `level`.
  double total_size_megabytes(std::size_t level) const;

 private:
  std::string video_id_;
  std::vector<std::string> base_urls_;
  double total_duration_s_;
  double segment_duration_s_;
  BitrateLadder ladder_;
  VbrModel vbr_;
  std::size_t num_segments_;
  std::uint64_t video_hash_;
  std::vector<double> size_factor_;  ///< 1 + amplitude * waveform(i), per segment
};

}  // namespace eacs::media
