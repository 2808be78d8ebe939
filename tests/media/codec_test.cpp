#include "eacs/media/codec.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "eacs/media/catalogue.h"

namespace eacs::media {
namespace {

// With this resolution scale a 480x270 source plays the role of a
// 1080p-class display.
constexpr double kDisplayScale = 0.25;

Frame test_frame(std::size_t w = 128, std::size_t h = 72) {
  FrameGenerator generator(w, h, test_video("Sintel").profile);
  return generator.next();
}

TEST(CodecTest, DownsampleDimensionsAndAveraging) {
  Frame source(4, 4);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) source.set(x, y, x < 2 ? 0 : 200);
  }
  const Frame half = downsample(source, 2, 2);
  EXPECT_EQ(half.width(), 2U);
  EXPECT_EQ(half.at(0, 0), 0);
  EXPECT_EQ(half.at(1, 0), 200);
  EXPECT_THROW(downsample(source, 0, 2), std::invalid_argument);
}

TEST(CodecTest, UpsampleInterpolates) {
  Frame source(2, 1);
  source.set(0, 0, 0);
  source.set(1, 0, 200);
  const Frame wide = upsample(source, 5, 1);
  EXPECT_EQ(wide.at(0, 0), 0);
  EXPECT_EQ(wide.at(4, 0), 200);
  EXPECT_NEAR(wide.at(2, 0), 100, 2);
  EXPECT_THROW(upsample(source, 5, 0), std::invalid_argument);
}

TEST(CodecTest, QuantizeStepOneIsIdentity) {
  const Frame source = test_frame();
  const Frame q = quantize(source, 1.0);
  EXPECT_EQ(q.pixels(), source.pixels());
  EXPECT_THROW(quantize(source, 0.5), std::invalid_argument);
}

TEST(CodecTest, QuantizeCoarseStepReducesLevels) {
  const Frame source = test_frame();
  const Frame q = quantize(source, 32.0);
  for (std::size_t i = 0; i < q.pixels().size(); ++i) {
    EXPECT_EQ(q.pixels()[i] % 32, 0) << "pixel " << i;
  }
}

TEST(CodecTest, RungPixelsNamedAndDerived) {
  EXPECT_EQ(rung_pixels({5.8, "1080p"}).height, 1080U);
  EXPECT_EQ(rung_pixels({0.1, "144p"}).width, 256U);
  const auto derived = rung_pixels({1.0, ""});  // unnamed evaluation rung
  EXPECT_GT(derived.height, 144U);
  EXPECT_LT(derived.height, 1080U);
}

TEST(CodecTest, PsnrBasics) {
  const Frame source = test_frame();
  EXPECT_DOUBLE_EQ(psnr(source, source), 100.0);
  const Frame degraded = quantize(source, 32.0);
  const double value = psnr(source, degraded);
  EXPECT_GT(value, 15.0);
  EXPECT_LT(value, 45.0);
  Frame other(4, 4);
  EXPECT_THROW(psnr(source, other), std::invalid_argument);
}

TEST(CodecTest, SsimBasics) {
  const Frame source = test_frame();
  EXPECT_NEAR(ssim(source, source), 1.0, 1e-12);
  const Frame degraded = quantize(downsample(source, 32, 18), 16.0);
  const Frame restored = upsample(degraded, source.width(), source.height());
  const double value = ssim(source, restored);
  EXPECT_GT(value, 0.0);
  EXPECT_LT(value, 0.99);
  Frame other(4, 4);
  EXPECT_THROW(ssim(source, other), std::invalid_argument);
}

TEST(CodecTest, QualityMonotoneAcrossLadder) {
  // Higher rung => higher PSNR and SSIM against the pristine source. A
  // 480x270 source with resolution_scale 0.25 plays the role of a
  // 1080p-class display at laptop cost.
  const Frame source = test_frame(480, 270);
  const auto ladder = BitrateLadder::table2();
  double prev_psnr = 0.0;
  double prev_ssim = 0.0;
  for (std::size_t level = 0; level < ladder.size(); ++level) {
    const Frame decoded = simulate_encode(source, ladder.rung(level), kDisplayScale);
    const double p = psnr(source, decoded);
    const double s = ssim(source, decoded);
    EXPECT_GE(p, prev_psnr - 0.2) << "level " << level;
    EXPECT_GE(s, prev_ssim - 0.005) << "level " << level;
    prev_psnr = p;
    prev_ssim = s;
  }
  // And the top rung is decisively better than the bottom.
  const double bottom =
      psnr(source, simulate_encode(source, ladder.rung(0), kDisplayScale));
  const double top =
      psnr(source,
           simulate_encode(source, ladder.rung(ladder.size() - 1), kDisplayScale));
  EXPECT_GT(top, bottom + 3.0);
}

TEST(CodecTest, EncodeNeverUpscalesAboveSource) {
  const Frame tiny = test_frame(64, 36);
  const Frame decoded = simulate_encode(tiny, {5.8, "1080p"});
  EXPECT_EQ(decoded.width(), 64U);
  EXPECT_EQ(decoded.height(), 36U);
}

// Pins the frame rate and the quantiser's anchor (reference bpp, base step)
// by a literal value: at the 1080p rung the encode keeps the source's
// 480x270 pixels, so only the quantisation step (4 * 0.09 / bpp at 30 fps,
// about 3.86) moves the PSNR.
TEST(CodecTest, TopRungPsnrIsPinned) {
  const Frame source = test_frame(480, 270);
  const auto ladder = BitrateLadder::table2();
  EXPECT_NEAR(psnr(source, simulate_encode(source, ladder.rung(5), kDisplayScale)),
              46.487091436213881, 1e-9);
}

TEST(CodecTest, NonFiniteOrNonPositiveScaleThrows) {
  const Frame source = test_frame();
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -0.5, 0.0}) {
    try {
      (void)simulate_encode(source, {5.8, "1080p"}, scale);
      ADD_FAILURE() << "no throw at resolution_scale " << scale;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("resolution_scale"), std::string::npos)
          << error.what();
    }
  }
}

TEST(CodecTest, QualitySaturatesLikeQ0) {
  // The q0 shape: the 480p -> 1080p SSIM gain is much smaller than the
  // 144p -> 480p gain.
  const Frame source = test_frame(480, 270);
  const auto ladder = BitrateLadder::table2();
  const auto ssim_at = [&](std::size_t level) {
    return ssim(source, simulate_encode(source, ladder.rung(level), kDisplayScale));
  };
  const double s144 = ssim_at(0);
  const double s480 = ssim_at(3);
  const double s1080 = ssim_at(5);
  // Synthetic textures are harsher on downsampling than natural video, so
  // the concavity is milder than q0's; require a 1.5x gain ratio.
  EXPECT_GT(s480 - s144, 1.5 * (s1080 - s480));
}

}  // namespace
}  // namespace eacs::media
