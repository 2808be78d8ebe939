#pragma once
// Simulated ITU-T P.910 subjective quality-assessment study.
//
// The paper recruited 20 subjects (IRB-approved) to watch the Table I videos
// at the Table II bitrates in two contexts (quiet room / moving vehicle),
// rate them on the 9-grade numerical scale, transform to the 5-level scale
// with  q5 = 1 + 4*(q9-1)/8, and least-squares fit the QoE model from the
// ratings. This module reproduces that pipeline against a *simulated* rater
// panel: a ground-truth QoE surface plus per-subject bias and per-rating
// noise, then the same 9->5 transform, aggregation into MOS, and the model
// fit on the individual ratings.
//
// The fit-recovery property — with 20 noisy subjects the fitted coefficients
// land close to the ground truth — is asserted by tests and printed by
// bench_table3_qoe_fit.

#include <cstddef>
#include <string>
#include <vector>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/media/catalogue.h"
#include "eacs/qoe/model.h"
#include "eacs/util/least_squares.h"
#include "eacs/util/rng.h"

namespace eacs::qoe {

/// One simulated rating event.
struct Rating {
  std::string video;
  double bitrate_mbps = 0.0;
  double vibration = 0.0;  ///< vibration level during the session
  int subject = 0;
  int score9 = 0;          ///< raw 9-grade numerical score (1..9)
  double score5 = 0.0;     ///< transformed 5-level score
};

/// Aggregated mean opinion score for one (bitrate, vibration) condition.
struct MosPoint {
  double bitrate_mbps = 0.0;
  double vibration = 0.0;
  double mos = 0.0;        ///< mean of the transformed scores
  std::size_t n = 0;       ///< ratings aggregated
};

/// Study design parameters.
///
/// Vehicle sessions draw a per-(subject, video) vibration level uniformly in
/// [vehicle_vibration_min, vehicle_vibration_max]: different rides shake
/// differently, which is what makes the impairment surface identifiable in
/// the vibration dimension (a single fixed level would leave the v-exponent
/// unconstrained).
struct StudyConfig {
  std::size_t num_subjects = 20;
  double subject_bias_sd = 0.25;       ///< per-subject constant offset (5-scale)
  double rating_noise_sd = 0.45;       ///< per-rating noise (5-scale)
  double room_vibration = 0.15;        ///< residual vibration in the quiet room
  double vehicle_vibration_min = 1.5;  ///< smooth ride
  double vehicle_vibration_max = 7.0;  ///< rough ride
  double vibration_bin = 0.5;          ///< aggregation bin width (m/s^2)
  /// Content dependence of perceived quality: complex (high-SI) content
  /// needs more bits for the same look, so its effective bitrate is scaled
  /// by 1 / (1 + content_sensitivity*(2*spatial_detail - 1)). 0 disables —
  /// every video then rates identically up to noise. This is why the paper
  /// characterises its dataset by SI/TI (Fig. 2(a)) and averages the fit
  /// over ten diverse videos.
  double content_sensitivity = 0.3;
  std::uint64_t seed = 2019;
};

/// Maps a 9-grade score to the 5-level scale: q5 = 1 + 4*(q9-1)/8.
double nine_to_five(double score9) noexcept;

/// Simulates the full study: every subject rates every Table I video at every
/// Table II bitrate in both contexts.
class SubjectiveStudy {
 public:
  SubjectiveStudy(StudyConfig config, QoeModel ground_truth);

  /// Runs the study and returns every individual rating.
  std::vector<Rating> run();

  /// Aggregates ratings into per-(bitrate, vibration-bin) MOS points; the
  /// reported vibration of a point is the mean of its members.
  static std::vector<MosPoint> aggregate(const std::vector<Rating>& ratings,
                                         double vibration_bin = 0.5);

  const StudyConfig& config() const noexcept { return config_; }

 private:
  StudyConfig config_;
  QoeModel ground_truth_;
};

/// Outcome of fitting the QoE model from the study's ratings.
struct QoeFit {
  QoeModelParams params;     ///< fitted a, b, kappa, alpha_v, beta_r (penalty
                             ///< terms copied from the input defaults)
  eacs::FitResult curve_fit;      ///< diagnostics for the q0 curve fit
  eacs::FitResult surface_fit;    ///< diagnostics for the impairment fit
};

/// One video's fitted quiet-room curve (per-genre analysis).
struct VideoCurveFit {
  std::string video;
  double a = 0.0;
  double b = 0.0;
  double r_squared = 0.0;
  double q_at_low = 0.0;   ///< fitted q0(0.375): where content bites hardest
  double q_at_high = 0.0;  ///< fitted q0(5.8)
};

/// Fits q0(r) = 5 - a*r^(-b) separately per video from its quiet-room
/// ratings. With content_sensitivity > 0, complex genres fit lower curves
/// at starved bitrates — the spread the paper's diverse dataset averages
/// over. Ordered as in media::test_videos().
std::vector<VideoCurveFit> fit_q0_per_video(const std::vector<Rating>& ratings,
                                            double room_threshold = 1.0);

/// Reproduces the paper's two least-squares fits from the individual
/// ratings, both via Gauss-Newton:
///  1. q0(r) = 5 - a*r^(-b) on the quiet-room ratings (those with vibration
///     below `room_threshold`);
///  2. I(v, r) = kappa*v^alpha_v*r^beta_r in (log kappa, alpha_v, beta_r) on
///     *paired*, untruncated differences: each subject rated every (video,
///     bitrate) both in the quiet room and on their ride, so the difference
///     of those two scores cancels the subject's constant bias and carries
///     the exact ride vibration (no binning).
/// Throws std::invalid_argument on fewer than 4 quiet-room ratings.
QoeFit fit_qoe_model_from_ratings(const std::vector<Rating>& ratings,
                                  double room_threshold = 1.0);

}  // namespace eacs::qoe
