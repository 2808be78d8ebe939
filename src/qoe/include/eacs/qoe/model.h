#pragma once
// The paper's QoE model (Section III-B, Fig. 2, Table III).
//
// Perceived quality of one video segment ("task") decomposes into:
//
//   Q(i) = q0(r_i)                       original quality (quiet room)
//        - I(v_i, r_i)                   vibration impairment
//        - lambda * |q0(r_i)-q0(r_im1)|  bitrate-switch impairment
//        - mu * T_rebuf(i)               rebuffering impairment
//
// clamped to the 5-level MOS range [1, 5].
//
// Functional forms (reconstruction of the OCR-lost Eqs. 1-4; see DESIGN.md):
//   q0(r)   = 5 - a * r^(-b)                      a=1.036, b=0.429 (Table III)
//   I(v, r) = kappa * v^alpha_v * r^beta_r        fit to the paper's four
//                                                 reported surface samples
//                                                 (0.049/0.184/0.174/0.549)
//
// Sanity anchors from the paper that tests assert:
//   * 1080p -> 480p in a quiet room loses ~12% QoE; on a vehicle only ~4%;
//   * I grows with both v and r; I ~ 0 at very low bitrate or vibration.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace eacs::qoe {

/// Model coefficients (Table III reconstruction).
struct QoeModelParams {
  // Original-quality curve q0(r) = 5 - a * r^(-b).
  double a = 1.036;
  double b = 0.429;
  // Vibration impairment surface I(v, r) = kappa * v^alpha_v * r^beta_r.
  double kappa = 0.0165;
  double alpha_v = 1.124;
  double beta_r = 0.872;
  // Bitrate-switch impairment weight (per unit |q0 delta|).
  double switch_penalty = 0.5;
  // Rebuffering impairment weight (MOS points per stalled second).
  double rebuffer_penalty_per_s = 0.8;

  // MOS scale bounds.
  double mos_min = 1.0;
  double mos_max = 5.0;
};

/// Per-segment QoE inputs.
struct SegmentContext {
  double bitrate_mbps = 0.0;       ///< this segment's encode bitrate
  double vibration = 0.0;          ///< vibration level during playback (m/s^2)
  double prev_bitrate_mbps = 0.0;  ///< previous segment's bitrate; <= 0 means
                                   ///< "first segment" (no switch term)
  double rebuffer_s = 0.0;         ///< stall time attributed to this segment
};

/// The terms of segment_qoe that depend only on the rung, for one bitrate
/// ladder (DESIGN §8): q0(r) and r^beta_r, computed once per ladder instead
/// of once per segment. Built by QoeModel::rung_terms.
struct RungTerms {
  std::vector<double> bitrate_mbps;  ///< r; guards the impairment and switch
  std::vector<double> quality;       ///< original_quality(r)
  std::vector<double> rate_factor;   ///< r^beta_r
};

/// Evaluates the QoE model.
class QoeModel {
 public:
  /// Throws std::invalid_argument, naming the field, unless every field is
  /// finite, mos_min < mos_max, and a, kappa, switch_penalty and
  /// rebuffer_penalty_per_s are >= 0.
  explicit QoeModel(QoeModelParams params = {});

  const QoeModelParams& params() const noexcept { return params_; }

  /// Original (quiet-room) quality of a bitrate, clamped to [mos_min, mos_max].
  double original_quality(double bitrate_mbps) const noexcept;

  /// Vibration impairment I(v, r); >= 0, and 0 when v <= 0 or r <= 0.
  double vibration_impairment(double vibration, double bitrate_mbps) const noexcept;

  /// Context-adjusted quality q0(r) - I(v, r), clamped to the MOS range.
  double perceived_quality(double bitrate_mbps, double vibration) const noexcept;

  /// Full per-segment QoE including switch and rebuffer impairments.
  double segment_qoe(const SegmentContext& context) const noexcept;

  /// segment_qoe(context), bit for bit, given quality =
  /// original_quality(context.bitrate_mbps) and prev_quality =
  /// original_quality(context.prev_bitrate_mbps) (read only when the
  /// previous bitrate is > 0): a caller scoring consecutive segments passes
  /// one segment's quality on as the next one's prev_quality, one q0 per
  /// segment.
  double segment_qoe(const SegmentContext& context, double quality,
                     double prev_quality) const noexcept;

  /// Bitrate-switch impairment term alone.
  double switch_impairment(double bitrate_mbps, double prev_bitrate_mbps) const noexcept;

  /// q0(r) and r^beta_r for every rung of `bitrates_mbps`.
  RungTerms rung_terms(std::span<const double> bitrates_mbps) const;

  /// kappa * v^alpha_v, the rung-free factor of I(v, r); 0 when v <= 0.
  double vibration_weight(double vibration) const noexcept;

  /// I(v, r) at rung `level` of `rungs`, given w = vibration_weight(v):
  /// bitwise equal to vibration_impairment(v, rungs.bitrate_mbps[level]).
  double vibration_impairment(const RungTerms& rungs, std::size_t level,
                              double vibration, double weight) const noexcept;

  /// segment_qoe at rung `level` of `rungs` after rung `prev_level` (none for
  /// a first segment), with one pow per call (v^alpha_v): bitwise equal to
  /// segment_qoe(SegmentContext) on the rungs' bitrates.
  double segment_qoe(const RungTerms& rungs, std::size_t level,
                     std::optional<std::size_t> prev_level, double vibration,
                     double rebuffer_s) const noexcept;

  /// The tail of segment_qoe's subtraction chain, shared by every path:
  /// (base - switch_term) - mu * max(0, rebuffer_s), clamped to the MOS
  /// range, where base = q0(r) - I(v, r).
  double segment_qoe_from_base(double base, double switch_term,
                               double rebuffer_s) const noexcept;

 private:
  /// lambda * |quality - prev_quality|, or 0 when prev_bitrate_mbps <= 0:
  /// the switch term of every segment_qoe path.
  double switch_term(double quality, double prev_quality,
                     double prev_bitrate_mbps) const noexcept;

  QoeModelParams params_;
};

}  // namespace eacs::qoe
