#include "eacs/media/codec.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eacs::media {
namespace {

constexpr struct {
  const char* name;
  std::size_t width;
  std::size_t height;
} kNamed[] = {
    {"144p", 256, 144},  {"240p", 426, 240},  {"360p", 640, 360},
    {"480p", 854, 480},  {"720p", 1280, 720}, {"1080p", 1920, 1080},
};

std::uint8_t clamp_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

}  // namespace

Frame downsample(const Frame& source, std::size_t width, std::size_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("downsample: empty target");
  }
  Frame out(width, height);
  const double sx = static_cast<double>(source.width()) / static_cast<double>(width);
  const double sy = static_cast<double>(source.height()) / static_cast<double>(height);
  for (std::size_t y = 0; y < height; ++y) {
    const auto y0 = static_cast<std::size_t>(static_cast<double>(y) * sy);
    const auto y1 = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(static_cast<double>(y + 1) * sy)), y0 + 1,
        source.height());
    for (std::size_t x = 0; x < width; ++x) {
      const auto x0 = static_cast<std::size_t>(static_cast<double>(x) * sx);
      const auto x1 = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::ceil(static_cast<double>(x + 1) * sx)), x0 + 1,
          source.width());
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t yy = y0; yy < y1; ++yy) {
        for (std::size_t xx = x0; xx < x1; ++xx) {
          sum += source.at(xx, yy);
          ++count;
        }
      }
      out.set(x, y, clamp_pixel(count > 0 ? sum / static_cast<double>(count) : 0.0));
    }
  }
  return out;
}

Frame upsample(const Frame& source, std::size_t width, std::size_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("upsample: empty target");
  }
  Frame out(width, height);
  const double sx =
      static_cast<double>(source.width() - 1) / std::max<std::size_t>(1, width - 1);
  const double sy =
      static_cast<double>(source.height() - 1) / std::max<std::size_t>(1, height - 1);
  for (std::size_t y = 0; y < height; ++y) {
    const double fy = static_cast<double>(y) * sy;
    const auto y0 = static_cast<std::size_t>(fy);
    const std::size_t y1 = std::min(y0 + 1, source.height() - 1);
    const double wy = fy - static_cast<double>(y0);
    for (std::size_t x = 0; x < width; ++x) {
      const double fx = static_cast<double>(x) * sx;
      const auto x0 = static_cast<std::size_t>(fx);
      const std::size_t x1 = std::min(x0 + 1, source.width() - 1);
      const double wx = fx - static_cast<double>(x0);
      const double top = (1.0 - wx) * source.at(x0, y0) + wx * source.at(x1, y0);
      const double bottom = (1.0 - wx) * source.at(x0, y1) + wx * source.at(x1, y1);
      out.set(x, y, clamp_pixel((1.0 - wy) * top + wy * bottom));
    }
  }
  return out;
}

Frame quantize(const Frame& source, double step) {
  if (step < 1.0) throw std::invalid_argument("quantize: step must be >= 1");
  Frame out(source.width(), source.height());
  for (std::size_t y = 0; y < source.height(); ++y) {
    for (std::size_t x = 0; x < source.width(); ++x) {
      const double quantized =
          std::round(static_cast<double>(source.at(x, y)) / step) * step;
      out.set(x, y, clamp_pixel(quantized));
    }
  }
  return out;
}

PixelSize rung_pixels(const BitrateRung& rung) {
  for (const auto& named : kNamed) {
    if (rung.resolution == named.name) return {named.width, named.height};
  }
  // Unnamed rung: interpolate area from bitrate assuming constant bpp at
  // 30 fps relative to 1080p @ 5.8 Mbps, preserving 16:9.
  const double area_ratio = rung.bitrate_mbps / 5.8;
  const double height = std::clamp(1080.0 * std::sqrt(area_ratio), 72.0, 2160.0);
  const double width = height * 16.0 / 9.0;
  return {static_cast<std::size_t>(width), static_cast<std::size_t>(height)};
}

Frame simulate_encode(const Frame& source, const BitrateRung& rung,
                      double resolution_scale) {
  // A NaN, negative or infinite scale would reach the size_t casts below.
  if (!(std::isfinite(resolution_scale) && resolution_scale > 0.0)) {
    throw std::invalid_argument(
        "simulate_encode: resolution_scale must be finite and > 0");
  }
  const PixelSize pixels = rung_pixels(rung);
  const auto scaled_w = std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(pixels.width) *
                                  resolution_scale));
  const auto scaled_h = std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(pixels.height) *
                                  resolution_scale));
  // Never "encode" above the source resolution.
  const std::size_t encode_w = std::min(scaled_w, source.width());
  const std::size_t encode_h = std::min(scaled_h, source.height());
  Frame encoded = downsample(source, encode_w, encode_h);

  // Quantisation driven by bits/pixel at the rung's own resolution.
  const double bpp =
      rung.bitrate_mbps * 1e6 /
      (static_cast<double>(pixels.width * pixels.height) * kCodecFps);
  const double step = std::clamp(
      kCodecBaseQuantStep * kCodecReferenceBpp / std::max(1e-6, bpp), 1.0, 64.0);
  encoded = quantize(encoded, step);

  return upsample(encoded, source.width(), source.height());
}

double psnr(const Frame& reference, const Frame& distorted) {
  if (reference.width() != distorted.width() ||
      reference.height() != distorted.height()) {
    throw std::invalid_argument("psnr: dimension mismatch");
  }
  double mse = 0.0;
  const auto& a = reference.pixels();
  const auto& b = distorted.pixels();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.size());
  if (mse <= 1e-12) return 100.0;
  return std::min(100.0, 10.0 * std::log10(255.0 * 255.0 / mse));
}

double ssim(const Frame& reference, const Frame& distorted) {
  if (reference.width() != distorted.width() ||
      reference.height() != distorted.height()) {
    throw std::invalid_argument("ssim: dimension mismatch");
  }
  const auto& a = reference.pixels();
  const auto& b = distorted.pixels();
  const double n = static_cast<double>(a.size());
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= n;
  mean_b /= n;
  double var_a = 0.0;
  double var_b = 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    var_a += da * da;
    var_b += db * db;
    cov += da * db;
  }
  var_a /= n;
  var_b /= n;
  cov /= n;
  constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
  constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
  return ((2.0 * mean_a * mean_b + kC1) * (2.0 * cov + kC2)) /
         ((mean_a * mean_a + mean_b * mean_b + kC1) * (var_a + var_b + kC2));
}

}  // namespace eacs::media
