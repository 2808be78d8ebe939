#include "eacs/qoe/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace eacs::qoe {

QoeModel::QoeModel(QoeModelParams params) : params_(params) {
  const QoeModelParams& p = params_;
  const auto reject = [](const char* field, const char* rule) {
    throw std::invalid_argument(std::string("QoeModel: ") + field + rule);
  };
  const std::pair<const char*, double> fields[] = {
      {"a", p.a},
      {"b", p.b},
      {"kappa", p.kappa},
      {"alpha_v", p.alpha_v},
      {"beta_r", p.beta_r},
      {"switch_penalty", p.switch_penalty},
      {"rebuffer_penalty_per_s", p.rebuffer_penalty_per_s},
      {"mos_min", p.mos_min},
      {"mos_max", p.mos_max}};
  for (const auto& [field, value] : fields) {
    if (!std::isfinite(value)) reject(field, " must be finite");
  }
  if (!(p.mos_min < p.mos_max)) reject("mos_min", " must be < mos_max");
  const std::pair<const char*, double> coefficients[] = {
      {"a", p.a},
      {"kappa", p.kappa},
      {"switch_penalty", p.switch_penalty},
      {"rebuffer_penalty_per_s", p.rebuffer_penalty_per_s}};
  for (const auto& [field, value] : coefficients) {
    if (value < 0.0) reject(field, " must be >= 0");
  }
}

double QoeModel::original_quality(double bitrate_mbps) const noexcept {
  if (bitrate_mbps <= 0.0) return params_.mos_min;
  const double q = params_.mos_max - params_.a * std::pow(bitrate_mbps, -params_.b);
  return std::clamp(q, params_.mos_min, params_.mos_max);
}

double QoeModel::vibration_impairment(double vibration,
                                      double bitrate_mbps) const noexcept {
  if (vibration <= 0.0 || bitrate_mbps <= 0.0) return 0.0;
  return params_.kappa * std::pow(vibration, params_.alpha_v) *
         std::pow(bitrate_mbps, params_.beta_r);
}

double QoeModel::perceived_quality(double bitrate_mbps, double vibration) const noexcept {
  const double q =
      original_quality(bitrate_mbps) - vibration_impairment(vibration, bitrate_mbps);
  return std::clamp(q, params_.mos_min, params_.mos_max);
}

double QoeModel::switch_term(double quality, double prev_quality,
                             double prev_bitrate_mbps) const noexcept {
  // Guards on the *previous* bitrate only: a first segment has none.
  if (prev_bitrate_mbps <= 0.0) return 0.0;
  return params_.switch_penalty * std::fabs(quality - prev_quality);
}

double QoeModel::switch_impairment(double bitrate_mbps,
                                   double prev_bitrate_mbps) const noexcept {
  return switch_term(original_quality(bitrate_mbps),
                     original_quality(prev_bitrate_mbps), prev_bitrate_mbps);
}

double QoeModel::segment_qoe_from_base(double base, double switch_term,
                                       double rebuffer_s) const noexcept {
  double q = base - switch_term;
  q -= params_.rebuffer_penalty_per_s * std::max(0.0, rebuffer_s);
  return std::clamp(q, params_.mos_min, params_.mos_max);
}

double QoeModel::segment_qoe(const SegmentContext& context) const noexcept {
  return segment_qoe(context, original_quality(context.bitrate_mbps),
                     original_quality(context.prev_bitrate_mbps));
}

double QoeModel::segment_qoe(const SegmentContext& context, double quality,
                             double prev_quality) const noexcept {
  const double base =
      quality - vibration_impairment(context.vibration, context.bitrate_mbps);
  return segment_qoe_from_base(
      base, switch_term(quality, prev_quality, context.prev_bitrate_mbps),
      context.rebuffer_s);
}

RungTerms QoeModel::rung_terms(std::span<const double> bitrates_mbps) const {
  RungTerms rungs;
  rungs.bitrate_mbps.assign(bitrates_mbps.begin(), bitrates_mbps.end());
  rungs.quality.reserve(bitrates_mbps.size());
  rungs.rate_factor.reserve(bitrates_mbps.size());
  for (const double r : bitrates_mbps) {
    rungs.quality.push_back(original_quality(r));
    rungs.rate_factor.push_back(std::pow(r, params_.beta_r));
  }
  return rungs;
}

double QoeModel::vibration_weight(double vibration) const noexcept {
  if (vibration <= 0.0) return 0.0;
  return params_.kappa * std::pow(vibration, params_.alpha_v);
}

double QoeModel::vibration_impairment(const RungTerms& rungs, std::size_t level,
                                      double vibration,
                                      double weight) const noexcept {
  // vibration_impairment's guard and operand order: (kappa * v^a) * r^b.
  if (vibration <= 0.0 || rungs.bitrate_mbps[level] <= 0.0) return 0.0;
  return weight * rungs.rate_factor[level];
}

double QoeModel::segment_qoe(const RungTerms& rungs, std::size_t level,
                             std::optional<std::size_t> prev_level,
                             double vibration,
                             double rebuffer_s) const noexcept {
  const double base =
      rungs.quality[level] -
      vibration_impairment(rungs, level, vibration, vibration_weight(vibration));
  const double switch_impair =
      prev_level ? switch_term(rungs.quality[level], rungs.quality[*prev_level],
                               rungs.bitrate_mbps[*prev_level])
                 : 0.0;
  return segment_qoe_from_base(base, switch_impair, rebuffer_s);
}

}  // namespace eacs::qoe
