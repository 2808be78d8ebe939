#include "eacs/qoe/subjective_study.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eacs::qoe {
namespace {

TEST(NineToFiveTest, MapsScaleEndpointsAndMidpoint) {
  EXPECT_DOUBLE_EQ(nine_to_five(1.0), 1.0);
  EXPECT_DOUBLE_EQ(nine_to_five(9.0), 5.0);
  EXPECT_DOUBLE_EQ(nine_to_five(5.0), 3.0);
}

TEST(SubjectiveStudyTest, ProducesFullFactorialDesign) {
  StudyConfig config;
  config.num_subjects = 3;
  SubjectiveStudy study(config, QoeModel{});
  const auto ratings = study.run();
  // 3 subjects x 10 videos x 6 bitrates x 2 contexts.
  EXPECT_EQ(ratings.size(), 3U * 10U * 6U * 2U);
  for (const auto& rating : ratings) {
    EXPECT_GE(rating.score9, 1);
    EXPECT_LE(rating.score9, 9);
    EXPECT_GE(rating.score5, 1.0);
    EXPECT_LE(rating.score5, 5.0);
  }
}

TEST(SubjectiveStudyTest, DeterministicPerSeed) {
  StudyConfig config;
  config.num_subjects = 2;
  SubjectiveStudy a(config, QoeModel{});
  SubjectiveStudy b(config, QoeModel{});
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].score9, rb[i].score9);
  }
}

TEST(SubjectiveStudyTest, ZeroSubjectsThrows) {
  StudyConfig config;
  config.num_subjects = 0;
  EXPECT_THROW(SubjectiveStudy(config, QoeModel{}), std::invalid_argument);
}

TEST(SubjectiveStudyTest, AggregateComputesMos) {
  std::vector<Rating> ratings;
  for (int i = 0; i < 4; ++i) {
    Rating rating;
    rating.bitrate_mbps = 1.5;
    rating.vibration = 0.1;
    rating.score5 = 2.0 + i;  // 2,3,4,5
    ratings.push_back(rating);
  }
  const auto mos = SubjectiveStudy::aggregate(ratings);
  ASSERT_EQ(mos.size(), 1U);
  EXPECT_DOUBLE_EQ(mos[0].mos, 3.5);
  EXPECT_EQ(mos[0].n, 4U);
}

TEST(SubjectiveStudyTest, AggregateBinsVibration) {
  std::vector<Rating> ratings;
  Rating a;
  a.bitrate_mbps = 1.5;
  a.vibration = 2.1;
  a.score5 = 3.0;
  Rating b = a;
  b.vibration = 2.4;  // same 0.5-wide bin as 2.1
  Rating c = a;
  c.vibration = 6.0;  // different bin
  ratings = {a, b, c};
  const auto mos = SubjectiveStudy::aggregate(ratings, 0.5);
  EXPECT_EQ(mos.size(), 2U);
}

TEST(SubjectiveStudyTest, AggregateRejectsBadBin) {
  EXPECT_THROW(SubjectiveStudy::aggregate({}, 0.0), std::invalid_argument);
}

TEST(QoeFitTest, RecoversGroundTruthFromNoisyPanel) {
  // The paper's pipeline: 20 noisy subjects -> least squares. The q0 curve
  // is tightly identified; the impairment surface's individual exponents are
  // NOT (one study's rating noise rivals the impairment signal), so we
  // assert *functional* recovery: the fitted surface must track the ground
  // truth at the paper's high-impairment spot checks, where decisions are
  // actually influenced.
  const QoeModelParams truth;  // a=1.036, b=0.429, kappa=0.0165, ...
  StudyConfig config;
  SubjectiveStudy study(config, QoeModel{truth});
  const auto ratings = study.run();
  const auto fit = fit_qoe_model_from_ratings(ratings);

  EXPECT_NEAR(fit.params.a, truth.a, 0.15);
  EXPECT_NEAR(fit.params.b, truth.b, 0.12);
  EXPECT_GT(fit.curve_fit.r_squared, 0.5);  // individual ratings, not MOS

  const QoeModel truth_model{truth};
  const QoeModel fitted_model{fit.params};
  for (const auto& [v, r] : {std::pair{6.0, 5.8}, std::pair{6.0, 3.0},
                             std::pair{4.0, 5.8}}) {
    const double want = truth_model.vibration_impairment(v, r);
    const double got = fitted_model.vibration_impairment(v, r);
    EXPECT_GT(got, 0.4 * want) << "I(" << v << ", " << r << ")";
    EXPECT_LT(got, 2.0 * want) << "I(" << v << ", " << r << ")";
  }
}

TEST(QoeFitTest, LowNoisePanelRecoversExponents) {
  // With a quieter panel (many careful raters) the exponents themselves are
  // identified — this guards the estimator against systematic bias.
  StudyConfig config;
  config.rating_noise_sd = 0.1;
  config.subject_bias_sd = 0.05;
  config.num_subjects = 40;
  const QoeModelParams truth;
  SubjectiveStudy study(config, QoeModel{truth});
  const auto fit = fit_qoe_model_from_ratings(study.run());
  EXPECT_NEAR(fit.params.alpha_v, truth.alpha_v, 0.4);
  EXPECT_NEAR(fit.params.beta_r, truth.beta_r, 0.3);
  EXPECT_GT(fit.params.kappa, truth.kappa * 0.4);
  EXPECT_LT(fit.params.kappa, truth.kappa * 2.5);
}

TEST(QoeFitTest, NoiselessPanelRecoversTightly) {
  StudyConfig config;
  config.subject_bias_sd = 0.0;
  config.rating_noise_sd = 0.0;
  config.num_subjects = 20;
  const QoeModelParams truth;
  SubjectiveStudy study(config, QoeModel{truth});
  const auto fit = fit_qoe_model_from_ratings(study.run());
  // Quantisation to the 9-grade scale is the only distortion left.
  EXPECT_NEAR(fit.params.a, truth.a, 0.08);
  EXPECT_NEAR(fit.params.b, truth.b, 0.08);
}

TEST(PerVideoFitTest, ContentSensitivitySpreadsTheCurves) {
  StudyConfig config;
  config.content_sensitivity = 0.3;
  config.rating_noise_sd = 0.2;  // keep the per-video fits crisp
  SubjectiveStudy study(config, QoeModel{});
  const auto fits = fit_q0_per_video(study.run());
  ASSERT_EQ(fits.size(), 10U);
  // Complex content (Goodwood, detail 0.88) scores clearly below simple
  // content (Speech, detail 0.18) at a starved bitrate...
  const auto find = [&](const char* name) {
    for (const auto& fit : fits) {
      if (fit.video == name) return fit;
    }
    throw std::runtime_error("missing video fit");
  };
  // True model gap at 0.375 Mbps with sensitivity 0.3 is ~0.28 MOS; allow
  // for fit noise.
  EXPECT_LT(find("Goodwood").q_at_low, find("Speech").q_at_low - 0.15);
  // ...while at the top bitrate the gap closes substantially.
  EXPECT_LT(find("Speech").q_at_high - find("Goodwood").q_at_high,
            find("Speech").q_at_low - find("Goodwood").q_at_low);
}

TEST(PerVideoFitTest, ZeroSensitivityCollapsesTheSpread) {
  StudyConfig config;
  config.content_sensitivity = 0.0;
  config.rating_noise_sd = 0.2;
  SubjectiveStudy study(config, QoeModel{});
  const auto fits = fit_q0_per_video(study.run());
  double min_low = 5.0;
  double max_low = 0.0;
  for (const auto& fit : fits) {
    min_low = std::min(min_low, fit.q_at_low);
    max_low = std::max(max_low, fit.q_at_low);
  }
  EXPECT_LT(max_low - min_low, 0.3);  // only noise separates the videos
}

TEST(QoeFitTest, NoRoomPointsThrows) {
  Rating vehicle;
  vehicle.bitrate_mbps = 1.5;
  vehicle.vibration = 6.0;
  vehicle.score5 = 3.0;
  EXPECT_THROW(fit_qoe_model_from_ratings({vehicle, vehicle, vehicle, vehicle}),
               std::invalid_argument);
}

}  // namespace
}  // namespace eacs::qoe
