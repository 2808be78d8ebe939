#include "eacs/qoe/subjective_study.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace eacs::qoe {

double nine_to_five(double score9) noexcept {
  return 1.0 + 4.0 * (score9 - 1.0) / 8.0;
}

SubjectiveStudy::SubjectiveStudy(StudyConfig config, QoeModel ground_truth)
    : config_(config), ground_truth_(ground_truth) {
  if (config_.num_subjects == 0) {
    throw std::invalid_argument("SubjectiveStudy: need at least one subject");
  }
}

std::vector<Rating> SubjectiveStudy::run() {
  eacs::Rng rng(config_.seed);
  const auto ladder = media::BitrateLadder::table2();
  const auto& videos = media::test_videos();

  // Per-subject constant biases (some people rate harsh, some generous).
  std::vector<double> biases;
  biases.reserve(config_.num_subjects);
  for (std::size_t s = 0; s < config_.num_subjects; ++s) {
    biases.push_back(rng.normal(0.0, config_.subject_bias_sd));
  }

  std::vector<Rating> ratings;
  ratings.reserve(config_.num_subjects * videos.size() * ladder.size() * 2);

  for (std::size_t subject = 0; subject < config_.num_subjects; ++subject) {
    for (const auto& video : videos) {
      // One bus ride per (subject, video): the whole bitrate sweep for this
      // video is watched under the same vibration level.
      const double ride_vibration =
          rng.uniform(config_.vehicle_vibration_min, config_.vehicle_vibration_max);
      const double contexts[] = {config_.room_vibration, ride_vibration};
      // Content factor: complex (high-detail) videos need more bits for the
      // same perceived quality.
      const double content_factor =
          1.0 + config_.content_sensitivity * (2.0 * video.profile.spatial_detail - 1.0);
      for (std::size_t level = 0; level < ladder.size(); ++level) {
        for (double vibration : contexts) {
          const double bitrate = ladder.bitrate(level);
          const double effective_bitrate = bitrate / std::max(0.1, content_factor);
          // Ground-truth perceived quality plus human noise, on the 5-scale.
          const double truth =
              ground_truth_.perceived_quality(effective_bitrate, vibration);
          const double noisy =
              truth + biases[subject] + rng.normal(0.0, config_.rating_noise_sd);
          // Subjects answer on the 9-grade scale; invert the transform, round
          // to an integer grade, clamp to 1..9.
          const double score9_real = 1.0 + (noisy - 1.0) * 8.0 / 4.0;
          const int score9 =
              static_cast<int>(std::clamp(std::round(score9_real), 1.0, 9.0));

          Rating rating;
          rating.video = video.name;
          rating.bitrate_mbps = bitrate;
          rating.vibration = vibration;
          rating.subject = static_cast<int>(subject);
          rating.score9 = score9;
          rating.score5 = nine_to_five(score9);
          ratings.push_back(std::move(rating));
        }
      }
    }
  }
  return ratings;
}

std::vector<MosPoint> SubjectiveStudy::aggregate(const std::vector<Rating>& ratings,
                                                 double vibration_bin) {
  if (vibration_bin <= 0.0) {
    throw std::invalid_argument("aggregate: vibration_bin must be > 0");
  }
  // Key on (bitrate, vibration bin); the point reports the members' mean
  // vibration rather than the bin centre so the fit sees unbiased regressors.
  const auto key_of = [vibration_bin](double bitrate, double vibration) {
    return std::make_pair(static_cast<long long>(std::llround(bitrate * 1e6)),
                          static_cast<long long>(std::floor(vibration / vibration_bin)));
  };
  struct Accumulator {
    double mos_sum = 0.0;
    double vibration_sum = 0.0;
    double bitrate = 0.0;
    std::size_t n = 0;
  };
  std::map<std::pair<long long, long long>, Accumulator> buckets;
  for (const auto& rating : ratings) {
    auto& acc = buckets[key_of(rating.bitrate_mbps, rating.vibration)];
    acc.bitrate = rating.bitrate_mbps;
    acc.mos_sum += rating.score5;
    acc.vibration_sum += rating.vibration;
    acc.n += 1;
  }
  std::vector<MosPoint> out;
  out.reserve(buckets.size());
  for (const auto& [key, acc] : buckets) {
    MosPoint point;
    point.bitrate_mbps = acc.bitrate;
    point.vibration = acc.vibration_sum / static_cast<double>(acc.n);
    point.mos = acc.mos_sum / static_cast<double>(acc.n);
    point.n = acc.n;
    out.push_back(point);
  }
  return out;
}

std::vector<VideoCurveFit> fit_q0_per_video(const std::vector<Rating>& ratings,
                                            double room_threshold) {
  std::vector<VideoCurveFit> fits;
  for (const auto& video : media::test_videos()) {
    std::vector<double> rates;
    std::vector<double> scores;
    for (const auto& rating : ratings) {
      if (rating.video == video.name && rating.vibration < room_threshold) {
        rates.push_back(rating.bitrate_mbps);
        scores.push_back(rating.score5);
      }
    }
    if (scores.size() < 4) continue;
    const auto model = [&rates](std::span<const double> p, std::size_t i) {
      return 5.0 - p[0] * std::pow(rates[i], -p[1]);
    };
    const eacs::FitResult fit = eacs::gauss_newton(model, scores, {1.0, 0.5});
    VideoCurveFit out;
    out.video = video.name;
    out.a = fit.params[0];
    out.b = fit.params[1];
    out.r_squared = fit.r_squared;
    const auto q0 = [&](double r) {
      return std::clamp(5.0 - out.a * std::pow(r, -out.b), 1.0, 5.0);
    };
    out.q_at_low = q0(0.375);
    out.q_at_high = q0(5.8);
    fits.push_back(std::move(out));
  }
  return fits;
}

QoeFit fit_qoe_model_from_ratings(const std::vector<Rating>& ratings,
                                  double room_threshold) {
  // --- Fit 1: q0 curve on the individual quiet-room ratings. ---
  std::vector<double> room_r;
  std::vector<double> room_y;
  for (const auto& rating : ratings) {
    if (rating.vibration < room_threshold) {
      room_r.push_back(rating.bitrate_mbps);
      room_y.push_back(rating.score5);
    }
  }
  if (room_y.size() < 4) {
    throw std::invalid_argument("fit_qoe_model_from_ratings: too few room ratings");
  }
  const auto q0_model = [&room_r](std::span<const double> p, std::size_t i) {
    return 5.0 - p[0] * std::pow(room_r[i], -p[1]);
  };
  eacs::FitResult curve = eacs::gauss_newton(q0_model, room_y, {1.0, 0.5});

  QoeFit fit;
  fit.params.a = curve.params[0];
  fit.params.b = curve.params[1];
  fit.curve_fit = curve;

  // --- Fit 2: paired within-subject impairment differences. ---
  // Key room ratings by (subject, video, bitrate) and subtract the matching
  // vehicle rating: the subject's constant bias cancels, and the difference
  // carries the exact per-ride vibration level.
  struct Key {
    int subject;
    std::string video;
    long long bitrate_micro;
    bool operator<(const Key& other) const {
      if (subject != other.subject) return subject < other.subject;
      if (video != other.video) return video < other.video;
      return bitrate_micro < other.bitrate_micro;
    }
  };
  std::map<Key, double> room_scores;
  for (const auto& rating : ratings) {
    if (rating.vibration < room_threshold) {
      room_scores[{rating.subject, rating.video,
                   static_cast<long long>(std::llround(rating.bitrate_mbps * 1e6))}] =
          rating.score5;
    }
  }
  std::vector<double> imp_v;
  std::vector<double> imp_r;
  std::vector<double> imp_y;
  for (const auto& rating : ratings) {
    if (rating.vibration < room_threshold) continue;
    const auto it = room_scores.find(
        {rating.subject, rating.video,
         static_cast<long long>(std::llround(rating.bitrate_mbps * 1e6))});
    if (it == room_scores.end()) continue;
    imp_v.push_back(rating.vibration);
    imp_r.push_back(rating.bitrate_mbps);
    imp_y.push_back(it->second - rating.score5);
  }
  if (imp_y.size() >= 3) {
    const auto surface_model = [&](std::span<const double> p, std::size_t i) {
      return std::exp(p[0]) * std::pow(imp_v[i], p[1]) * std::pow(imp_r[i], p[2]);
    };
    eacs::FitResult surface =
        eacs::gauss_newton(surface_model, imp_y, {std::log(0.02), 1.0, 1.0});
    fit.params.kappa = std::exp(surface.params[0]);
    fit.params.alpha_v = surface.params[1];
    fit.params.beta_r = surface.params[2];
    fit.surface_fit = surface;
  }
  return fit;
}

}  // namespace eacs::qoe
