#pragma once
// Encoder simulation and full-reference quality metrics (extension).
//
// The paper's q0(r) curve is *subjective* (rater MOS per ladder rung). This
// module grounds it objectively: simulate what encoding at a ladder rung
// does to a frame — downsample to the rung's resolution, quantize the luma
// (coarser at starved bitrates), upsample back to the display — and measure
// the damage with PSNR and SSIM. The resulting objective-quality-vs-bitrate
// curve should share q0's shape: steep at the bottom rungs, saturating at
// the top (bench_ext_codec checks the correlation). The frame rate and the
// quantiser's anchor are the named constants below; a run varies only the
// resolution scale.

#include <cstddef>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/media/frames.h"

namespace eacs::media {

// Encoder-simulation settings.
inline constexpr double kCodecFps = 30.0;
/// Bits/pixel below which quantisation becomes visible; the paper's ladder
/// keeps bpp roughly constant (~0.09), so resolution dominates.
inline constexpr double kCodecReferenceBpp = 0.09;
/// Luma quantisation step at kCodecReferenceBpp (doubles as bpp halves).
inline constexpr double kCodecBaseQuantStep = 4.0;

/// Box-filter downsample to (width, height).
Frame downsample(const Frame& source, std::size_t width, std::size_t height);

/// Bilinear upsample to (width, height).
Frame upsample(const Frame& source, std::size_t width, std::size_t height);

/// Uniform luma quantisation with the given step (>= 1 keeps the frame).
Frame quantize(const Frame& source, double step);

/// Pixel dimensions of a named ladder resolution ("720p" -> 1280x720).
/// Falls back to scaling from the bitrate when the rung is unnamed.
struct PixelSize {
  std::size_t width = 0;
  std::size_t height = 0;
};
PixelSize rung_pixels(const BitrateRung& rung);

/// Simulates encoding `source` at the given rung and decoding back to the
/// source's dimensions (the phone's display).
///
/// `resolution_scale` uniformly scales the rungs' pixel dimensions, letting
/// laptop-sized test frames stand in for a full display: with scale 0.25 a
/// 480x270 source plays the role of a 1080p-class display (1080p encodes at
/// 480x270, 144p at 64x36). Quantisation still uses the real rung
/// resolutions. 1.0 = true pixel dimensions. Throws std::invalid_argument,
/// naming `resolution_scale`, unless the scale is finite and > 0.
Frame simulate_encode(const Frame& source, const BitrateRung& rung,
                      double resolution_scale = 1.0);

/// Peak signal-to-noise ratio in dB; identical frames return +100 dB (cap).
/// Throws std::invalid_argument on dimension mismatch.
double psnr(const Frame& reference, const Frame& distorted);

/// Structural similarity (global statistics variant, standard constants);
/// 1.0 for identical frames. Throws std::invalid_argument on mismatch.
double ssim(const Frame& reference, const Frame& distorted);

}  // namespace eacs::media
