#pragma once
// Streaming signal filters used by the sensing pipeline.
//
// The vibration-level estimator removes the gravity component from raw
// accelerometer magnitudes with a single-pole high-pass filter and then takes
// a windowed RMS; the bandwidth path uses an EMA smoother for diagnostics.

#include <cmath>
#include <cstddef>
#include <vector>

namespace eacs {

/// Exponential moving average, y[n] = (1-a)*y[n-1] + a*x[n].
class EmaFilter {
 public:
  /// `alpha` in (0, 1]; larger tracks the input faster.
  explicit EmaFilter(double alpha);

  double update(double x) noexcept;
  double value() const noexcept { return value_; }
  bool primed() const noexcept { return primed_; }
  void reset() noexcept;

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// Single-pole high-pass filter (DC blocker):
///   y[n] = r * (y[n-1] + x[n] - x[n-1]).
/// Used to strip gravity (a quasi-DC 9.81 m/s^2 bias) from accelerometer
/// magnitude streams before computing vibration energy.
class HighPassFilter {
 public:
  /// `cutoff_hz` must be > 0 and < sample_rate_hz / 2.
  HighPassFilter(double cutoff_hz, double sample_rate_hz);

  /// Inline, so a batch loop can run it on a local copy of the filter (two
  /// doubles and a flag, kept in registers) and assign the copy back.
  double update(double x) noexcept {
    if (!primed_) {
      // Start with zero output so a constant input (gravity) is rejected from
      // the first sample instead of producing a large transient.
      prev_input_ = x;
      prev_output_ = 0.0;
      primed_ = true;
      return 0.0;
    }
    const double y = r_ * (prev_output_ + x - prev_input_);
    prev_input_ = x;
    prev_output_ = y;
    return y;
  }
  void reset() noexcept;

 private:
  double r_;
  double prev_input_ = 0.0;
  double prev_output_ = 0.0;
  bool primed_ = false;
};

/// Fixed-size moving RMS over the last `window` samples.
class MovingRms {
  /// The running sums over the ring of squared samples.
  struct Sums {
    std::size_t count = 0;
    std::size_t head = 0;  // oldest slot once the window is full
    double sum_squares = 0.0;
  };

 public:
  /// What the RMS reads of the window: the sum of its squares and how many
  /// it holds. No member initializers, so an array of them can be allocated
  /// without being written.
  struct Window {
    double sum_squares;
    std::size_t count;
  };

  /// The RMS of `window`, the one place the expression is written: value()
  /// reads it on the live sums, sensors::VibrationTrack on a recorded
  /// Batch::window().
  static double rms(Window window) noexcept {
    if (window.count == 0) return 0.0;
    // Guard against tiny negative drift from floating-point cancellation.
    const double mean_square =
        window.sum_squares > 0.0
            ? window.sum_squares / static_cast<double>(window.count)
            : 0.0;
    return std::sqrt(mean_square);
  }

  explicit MovingRms(std::size_t window);

  double update(double x) {
    push(sums_, storage_.data(), window_, x);
    return value();
  }
  double value() const noexcept { return rms({sums_.sum_squares, sums_.count}); }
  std::size_t count() const noexcept { return sums_.count; }
  void reset() noexcept;

  /// update() over a run of samples without the per-sample value: the
  /// running sums stay in this local copy (registers, which the ring stores
  /// cannot alias) until commit(). value() then reads what the last of the
  /// same update() calls would have returned, bit for bit: it is a function
  /// of the sums alone.
  class Batch {
   public:
    explicit Batch(MovingRms& rms) noexcept
        : rms_(&rms), ring_(rms.storage_.data()), window_(rms.window_),
          sums_(rms.sums_) {}

    void push(double x) noexcept { MovingRms::push(sums_, ring_, window_, x); }
    /// The window as the last push() left it; rms() of it is what value()
    /// would read after commit().
    Window window() const noexcept { return {sums_.sum_squares, sums_.count}; }
    void commit() noexcept { rms_->sums_ = sums_; }

   private:
    MovingRms* rms_;
    double* ring_;
    std::size_t window_;
    Sums sums_;
  };

 private:
  /// The window update, the one place it is written: adds x^2 to the sum
  /// while the window fills, then replaces the oldest square.
  static void push(Sums& sums, double* ring, std::size_t window, double x) noexcept {
    const double squared = x * x;
    if (sums.count < window) {
      ring[sums.count] = squared;
      sums.sum_squares += squared;
      ++sums.count;
    } else {
      sums.sum_squares += squared - ring[sums.head];
      ring[sums.head] = squared;
      sums.head = sums.head + 1 == window ? 0 : sums.head + 1;
    }
  }

  std::size_t window_;
  Sums sums_;
  std::vector<double> storage_;  // ring buffer of squared samples
};

}  // namespace eacs
