#include "eacs/util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eacs {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double accum = 0.0;
  for (double x : xs) accum += (x - mu) * (x - mu);
  return accum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double rms(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double accum = 0.0;
  for (double x : xs) accum += x * x;
  return std::sqrt(accum / static_cast<double>(xs.size()));
}

double jain_fairness(std::span<const double> xs) noexcept {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

double percentile(std::vector<double> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const double mx = mean(xs.subspan(0, n));
  const double my = mean(ys.subspan(0, n));
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void RunningStats::add(double x) noexcept {
  if (s_.count == 0) {
    s_.min = x;
    s_.max = x;
  } else {
    s_.min = std::min(s_.min, x);
    s_.max = std::max(s_.max, x);
  }
  ++s_.count;
  s_.sum += x;
  const double delta = x - s_.mean;
  s_.mean += delta / static_cast<double>(s_.count);
  s_.m2 += delta * (x - s_.mean);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.s_.count == 0) return;
  if (s_.count == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(s_.count);
  const auto n2 = static_cast<double>(other.s_.count);
  const double delta = other.s_.mean - s_.mean;
  const double total = n1 + n2;
  s_.mean += delta * n2 / total;
  s_.m2 += other.s_.m2 + delta * delta * n1 * n2 / total;
  s_.count += other.s_.count;
  s_.sum += other.s_.sum;
  s_.min = std::min(s_.min, other.s_.min);
  s_.max = std::max(s_.max, other.s_.max);
}

double RunningStats::variance() const noexcept {
  if (s_.count < 2) return 0.0;
  return s_.m2 / static_cast<double>(s_.count);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("SlidingWindow capacity must be > 0");
  items_.reserve(capacity_);
}

void SlidingWindow::push(double x) {
  if (items_.size() < capacity_) {
    items_.push_back(x);
    return;
  }
  items_[head_] = x;
  head_ = (head_ + 1) % capacity_;
}

void SlidingWindow::clear() noexcept {
  items_.clear();
  head_ = 0;
}

std::vector<double> SlidingWindow::values() const {
  std::vector<double> out;
  out.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    out.push_back(items_[(head_ + i) % items_.size()]);
  }
  return out;
}

double SlidingWindow::mean() const noexcept { return eacs::mean(items_); }

double SlidingWindow::harmonic_mean() const noexcept { return eacs::harmonic_mean(items_); }

P2Quantile::P2Quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("P2Quantile p must be in (0, 1)");
  }
  s_.p = p;
}

void P2Quantile::add(double x) {
  auto& [p, count, heights, positions, desired, increments] = s_;
  // Bootstrap: the first five samples become the markers, kept sorted.
  if (count < 5) {
    heights[count] = x;
    ++count;
    std::sort(heights.begin(), heights.begin() + static_cast<long>(count));
    if (count == 5) {
      for (int i = 0; i < 5; ++i) positions[i] = static_cast<double>(i + 1);
      desired = {1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0};
      increments = {0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0};
    }
    return;
  }

  // Locate the cell containing x and clamp the extreme markers.
  int k;
  if (x < heights[0]) {
    heights[0] = x;
    k = 0;
  } else if (x >= heights[4]) {
    heights[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired[i] += increments[i];
  ++count;

  // Adjust the interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired[i] - positions[i];
    const double below = positions[i] - positions[i - 1];
    const double above = positions[i + 1] - positions[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P^2) prediction of the marker height.
      const double np = positions[i + 1] - positions[i - 1];
      const double candidate =
          heights[i] +
          sign / np *
              ((below + sign) * (heights[i + 1] - heights[i]) / above +
               (above - sign) * (heights[i] - heights[i - 1]) / below);
      if (heights[i - 1] < candidate && candidate < heights[i + 1]) {
        heights[i] = candidate;
      } else {
        // Parabolic prediction left the bracket; fall back to linear.
        const int j = i + static_cast<int>(sign);
        heights[i] += sign * (heights[j] - heights[i]) /
                      (positions[j] - positions[i]);
      }
      positions[i] += sign;
    }
  }
}

void P2Quantile::restore(const P2QuantileState& state) {
  if (!(state.p > 0.0 && state.p < 1.0)) {
    throw std::invalid_argument("P2Quantile::restore: p must be in (0, 1)");
  }
  s_ = state;
}

double P2Quantile::value() const noexcept {
  if (s_.count == 0) return 0.0;
  if (s_.count < 5) {
    // Exact quantile of the sorted bootstrap buffer.
    const double rank = s_.p * static_cast<double>(s_.count - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, s_.count - 1);
    const double frac = rank - static_cast<double>(lo);
    return s_.heights[lo] + (s_.heights[hi] - s_.heights[lo]) * frac;
  }
  return s_.heights[2];
}

ReservoirSampler::ReservoirSampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ReservoirSampler capacity must be > 0");
  }
  items_.reserve(capacity_);
}

void ReservoirSampler::add(double x) {
  ++count_;
  if (items_.size() < capacity_) {
    items_.push_back(x);
    return;
  }
  // Algorithm R: keep x with probability capacity/count, evicting uniformly.
  const auto j = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(count_) - 1));
  if (j < capacity_) items_[j] = x;
}

void ReservoirSampler::merge(const ReservoirSampler& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    // Adopt the other reservoir's sample but keep our own Rng stream so the
    // merged state stays a pure function of (this seed, both streams).
    items_ = other.items_;
    count_ = other.count_;
    return;
  }
  // Each output slot keeps this side's element with probability
  // count/(count+other.count), otherwise draws uniformly from the other
  // reservoir. Count-weighting preserves uniformity over the union stream.
  const double total = static_cast<double>(count_) + static_cast<double>(other.count_);
  const double keep_self = static_cast<double>(count_) / total;
  const std::size_t out_size = std::min(capacity_, items_.size() + other.items_.size());
  std::vector<double> merged;
  merged.reserve(out_size);
  for (std::size_t i = 0; i < out_size; ++i) {
    if (i < items_.size() && (i >= other.items_.size() || rng_.uniform() < keep_self)) {
      merged.push_back(items_[i]);
    } else {
      const auto j = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(other.items_.size()) - 1));
      merged.push_back(other.items_[j]);
    }
  }
  items_ = std::move(merged);
  count_ += other.count_;
}

void ReservoirSampler::restore(const ReservoirSamplerState& state) {
  if (state.capacity == 0) {
    throw std::invalid_argument("ReservoirSampler::restore: zero capacity");
  }
  if (state.items.size() > state.capacity) {
    throw std::invalid_argument(
        "ReservoirSampler::restore: more kept items than capacity");
  }
  if (state.items.size() != std::min(state.count, state.capacity)) {
    throw std::invalid_argument(
        "ReservoirSampler::restore: kept-item count inconsistent with stream "
        "count");
  }
  Rng rng(0);  // seed irrelevant; the state overwrite below is total
  rng.restore(state.rng);
  capacity_ = state.capacity;
  count_ = state.count;
  rng_ = rng;
  items_ = state.items;
  items_.reserve(capacity_);
}

double ReservoirSampler::quantile(double p) const {
  return percentile(items_, std::clamp(p, 0.0, 1.0) * 100.0);
}

}  // namespace eacs
