#pragma once
// Vibration-level estimation (reconstruction of the paper's Eq. 5).
//
// The paper records accelerometer data during video watching and computes a
// scalar "vibration level" v (m/s^2, observed range ~0..7) over the trailing
// time window 0.2*W where W is the 30 s player buffer threshold, i.e. a 6 s
// window. We implement v as the RMS of the gravity-removed acceleration
// magnitude over that window:
//
//   v = rms_{window}( highpass( |a(t)| ) )
//
// A quiet room yields v close to 0 (sensor noise only); a moving vehicle
// yields v of several m/s^2, matching Table V's 2.46..6.83 averages.

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "eacs/sensors/accel.h"
#include "eacs/util/filters.h"

namespace eacs::sensors {

/// Configuration for the vibration estimator.
struct VibrationConfig {
  double window_s = 6.0;        ///< trailing window (paper: 0.2 * 30 s)
  double sample_rate_hz = 50.0; ///< accelerometer rate
  double highpass_cutoff_hz = 0.5;  ///< gravity-removal cutoff

  /// Degraded-stream behaviour for `level_at()`: once the stream has been
  /// quiet for longer than `quiet_after_s`, the estimate decays exponentially
  /// (time constant `prior_tau_s`) toward `prior_vibration`, a conservative
  /// vibrating-commute prior (Table V reports 2.46..6.83 m/s^2 on buses).
  /// Planning on "probably vibrating" costs a little energy headroom when the
  /// user is actually still; planning on a frozen quiet-room estimate costs
  /// rebuffering when they are not.
  double quiet_after_s = 2.0;
  double prior_vibration = 4.0;
  double prior_tau_s = 10.0;

  /// window_s * sample_rate_hz rounded to the nearest count, at least 1
  /// (0.29 s at 100 Hz is 29 samples, though the product reads
  /// 28.999999999999996). Meaningful only for a config
  /// require_valid_vibration accepts: a product below 2^64 rounds to at
  /// most 2^64 - 2048, so the cast is exact.
  std::size_t window_samples() const noexcept {
    const double n = window_s * sample_rate_hz;
    return n < 1.0 ? 1 : static_cast<std::size_t>(std::round(n));
  }

  /// Field by field; the engine checks a shared VibrationTrack with it.
  bool operator==(const VibrationConfig&) const = default;
};

/// The config's ranges: the window and the rate finite and > 0, with a
/// product below 2^64 (a sample count window_samples() can represent); the
/// high-pass cutoff finite in (0, rate / 2); quiet_after_s and the prior
/// finite and >= 0; the prior's time constant finite and > 0. Throws
/// std::invalid_argument prefixed with `who` and naming the field otherwise
/// (a NaN cutoff reads 0 on a vibrating stream, a NaN prior or a negative
/// time constant makes level_at() non-finite).
void require_valid_vibration(const std::string& who, const VibrationConfig& config);

/// Streaming vibration-level estimator.
///
/// Push raw samples as they arrive; `level()` returns the current vibration
/// level over the trailing window. O(1) per sample.
class VibrationEstimator {
 public:
  /// Throws std::invalid_argument unless require_valid_vibration accepts
  /// `config`.
  explicit VibrationEstimator(VibrationConfig config = {});

  /// Consumes one raw sample and returns the updated level. Samples with any
  /// non-finite axis are rejected without touching the filter state (a single
  /// NaN would otherwise poison the trailing RMS window for a full
  /// window_samples() updates); rejected samples are counted but return the
  /// unchanged level.
  double update(const AccelSample& sample);

  /// Consumes a run of samples and returns the level after the last one:
  /// bit for bit what update() on each sample in turn leaves, counters
  /// included. The filter states stay in registers across the run, and the
  /// level is computed once, at its end. With `windows` non-null, it also
  /// writes the RMS window after each sample to windows[i] (a rejected
  /// sample repeats the window before it), so MovingRms::rms(windows[i]) is
  /// the level after samples[0..i]; `windows` then has room for
  /// samples.size() entries.
  double consume(std::span<const AccelSample> samples,
                 eacs::MovingRms::Window* windows = nullptr);

  /// Current vibration level (m/s^2). 0 before any sample.
  double level() const noexcept;

  /// Level with staleness decay: the raw `level()` while the stream is fresh
  /// (age within quiet_after_s of the last *valid* sample), decaying toward
  /// config().prior_vibration as the stream stays quiet. Returns the prior
  /// outright if no valid sample was ever consumed. Always finite.
  double level_at(double now_s) const noexcept;

  /// Number of samples consumed (valid or not).
  std::size_t samples_seen() const noexcept { return samples_seen_; }

  /// Number of samples rejected for non-finite components.
  std::size_t rejected_samples() const noexcept { return rejected_samples_; }

  const VibrationConfig& config() const noexcept { return config_; }

  void reset();

 private:
  VibrationConfig config_;
  eacs::HighPassFilter highpass_;
  eacs::MovingRms rms_;
  std::size_t samples_seen_ = 0;
  std::size_t rejected_samples_ = 0;
  double last_valid_t_s_ = 0.0;
  bool have_valid_ = false;
};

/// The estimator's level after every prefix of one accelerometer trace under
/// one config, filled lazily: a read past the furthest sample any reader has
/// reached streams the estimator on to it, recording the RMS window and the
/// running maximum of the timestamps after each sample; a read behind it
/// looks them up. However many readers share a track, its trace is streamed
/// and walked once.
///
/// The level after a prefix is a pure function of that prefix (consume()
/// over any cut equals per-sample updates), so level_after(k) holds the bits
/// an estimator fed the first k samples would return, whatever order the
/// reads come in.
///
/// Not thread-safe: a read can fill. Build one track per trace per thread.
class VibrationTrack {
 public:
  /// `trace` is unowned and must outlive the track. Throws
  /// std::invalid_argument unless require_valid_vibration accepts `config`.
  VibrationTrack(const AccelTrace& trace, VibrationConfig config);

  const AccelTrace& trace() const noexcept { return *trace_; }
  const VibrationConfig& config() const noexcept { return estimator_.config(); }

  /// Level after the first `k` samples; 0.0 for k = 0. Throws
  /// std::out_of_range when k > trace().size().
  double level_after(std::size_t k);

  /// Where a reader's walk from sample `from` past every sample with
  /// timestamp <= `t_s` stops: the first index at or after `from` whose
  /// timestamp is not <= t_s (a later time or NaN), trace().size() when
  /// there is none. `from` is 0 for a new reader, else what this call last
  /// returned for the same reader. Behind the fill the answer is a galloping
  /// search from `from` over the running maximum of the timestamps; past it
  /// the call walks the samples, as a reader of its own would, and fills the
  /// track up to where the walk stopped.
  std::size_t advance(std::size_t from, double t_s);

 private:
  /// Streams samples filled_..k-1, recording their windows and running
  /// maxima.
  void fill_to(std::size_t k);

  const AccelTrace* trace_;
  VibrationEstimator estimator_;  ///< state after the first filled_ samples
  /// windows_[i] is the window after i + 1 samples; entries from filled_ on
  /// are unwritten (the buffer is never value-initialized).
  std::unique_ptr<eacs::MovingRms::Window[]> windows_;
  /// max_t_[i] is the largest timestamp among the first i + 1 samples, and
  /// NaN from the first NaN timestamp on; unwritten from filled_ on.
  std::unique_ptr<double[]> max_t_;
  std::size_t filled_ = 0;
};

/// Batch helper: vibration level over the trailing window of a whole trace.
double vibration_level(std::span<const AccelSample> trace, VibrationConfig config = {});

/// Batch helper: mean vibration level over the full trace, computed by
/// streaming the estimator across it and averaging the per-sample levels once
/// the window is primed. This is the statistic reported in Table V's
/// "Avg. vibration" column.
double mean_vibration_level(std::span<const AccelSample> trace,
                            VibrationConfig config = {});

}  // namespace eacs::sensors
