#include "eacs/media/manifest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace eacs::media {
namespace {

VideoManifest make_manifest(double duration = 10.0, double segment = 2.0,
                            double vbr = 0.0) {
  return VideoManifest("test", duration, segment, BitrateLadder::table2(),
                       VbrModel{vbr});
}

TEST(VideoManifestTest, SegmentCount) {
  EXPECT_EQ(make_manifest(10.0, 2.0).num_segments(), 5U);
  EXPECT_EQ(make_manifest(11.0, 2.0).num_segments(), 6U);
  EXPECT_EQ(make_manifest(0.5, 2.0).num_segments(), 1U);
}

TEST(VideoManifestTest, LastSegmentShortened) {
  const auto manifest = make_manifest(11.0, 2.0);
  EXPECT_DOUBLE_EQ(manifest.segment_duration(4), 2.0);
  EXPECT_DOUBLE_EQ(manifest.segment_duration(5), 1.0);
}

TEST(VideoManifestTest, SegmentIndexOutOfRangeThrows) {
  const auto manifest = make_manifest();
  EXPECT_THROW(manifest.segment_duration(5), std::out_of_range);
  EXPECT_THROW(manifest.segment_size_megabits(99, 0), std::out_of_range);
}

TEST(VideoManifestTest, CbrSizesMatchNominal) {
  const auto manifest = make_manifest(10.0, 2.0, 0.0);
  // 1.5 Mbps x 2 s = 3 megabits.
  EXPECT_DOUBLE_EQ(manifest.segment_size_megabits(0, 3), 3.0);
}

TEST(VideoManifestTest, VbrSizesVaryButStayBounded) {
  const auto manifest = make_manifest(600.0, 2.0, 0.2);
  const double nominal = 5.8 * 2.0;
  double min_seen = 1e9;
  double max_seen = 0.0;
  for (std::size_t i = 0; i < manifest.num_segments(); ++i) {
    const double size = manifest.segment_size_megabits(i, 5);
    EXPECT_GE(size, nominal * 0.8 - 1e-9);
    EXPECT_LE(size, nominal * 1.2 + 1e-9);
    min_seen = std::min(min_seen, size);
    max_seen = std::max(max_seen, size);
  }
  EXPECT_GT(max_seen - min_seen, 0.1);  // it actually varies
}

TEST(VideoManifestTest, VbrDeterministicPerVideoId) {
  const auto a1 = make_manifest(100.0, 2.0, 0.2);
  const auto a2 = make_manifest(100.0, 2.0, 0.2);
  for (std::size_t i = 0; i < a1.num_segments(); ++i) {
    EXPECT_DOUBLE_EQ(a1.segment_size_megabits(i, 2), a2.segment_size_megabits(i, 2));
  }
  const VideoManifest other("other", 100.0, 2.0, BitrateLadder::table2(),
                            VbrModel{0.2});
  bool any_differs = false;
  for (std::size_t i = 0; i < a1.num_segments(); ++i) {
    if (std::fabs(a1.segment_size_megabits(i, 2) - other.segment_size_megabits(i, 2)) >
        1e-9) {
      any_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(VideoManifestTest, TotalSizeMegabytes) {
  const auto manifest = make_manifest(100.0, 2.0, 0.0);
  // 100 s at 5.8 Mbps = 580 megabits = 72.5 MB.
  EXPECT_NEAR(manifest.total_size_megabytes(5), 72.5, 1e-9);
}

TEST(VideoManifestTest, HigherLevelAlwaysBigger) {
  const auto manifest = make_manifest(60.0, 2.0, 0.2);
  for (std::size_t i = 0; i < manifest.num_segments(); ++i) {
    for (std::size_t level = 1; level < 6; ++level) {
      EXPECT_GT(manifest.segment_size_megabits(i, level),
                manifest.segment_size_megabits(i, level - 1));
    }
  }
}

TEST(VideoManifestTest, InvalidArgumentsThrow) {
  EXPECT_THROW(make_manifest(0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(make_manifest(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(make_manifest(10.0, 2.0, 1.5), std::invalid_argument);
  EXPECT_THROW(make_manifest(10.0, 2.0, -0.1), std::invalid_argument);
  // Non-finite durations and amplitudes, and more segments than the size
  // table may hold.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(make_manifest(nan, 2.0), std::invalid_argument);
  EXPECT_THROW(make_manifest(inf, 2.0), std::invalid_argument);
  EXPECT_THROW(make_manifest(10.0, nan), std::invalid_argument);
  EXPECT_THROW(make_manifest(10.0, inf), std::invalid_argument);
  EXPECT_THROW(make_manifest(10.0, 2.0, nan), std::invalid_argument);
  // A duration inside the 1e-9-segment tolerance would give no segment.
  EXPECT_THROW(make_manifest(1e-10, 1.0), std::invalid_argument);
  const auto cap = static_cast<double>(VideoManifest::kMaxSegments);
  EXPECT_EQ(make_manifest(cap, 1.0).num_segments(), VideoManifest::kMaxSegments);
  EXPECT_THROW(make_manifest(cap + 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(make_manifest(1e9, 1e-6), std::invalid_argument);  // 10^15
}

TEST(VbrModelTest, WaveformBounded) {
  for (std::size_t i = 0; i < 1000; ++i) {
    const double w = VbrModel::waveform(12345, i);
    EXPECT_GE(w, -1.0);
    EXPECT_LE(w, 1.0);
  }
}

}  // namespace
}  // namespace eacs::media
