#pragma once
// The paper's power model (Section III-C, Fig. 1(a), Table IV/VI).
//
// Two operating modes:
//  * downloading — wireless-interface energy dominated by the radio; the
//    paper's Fig. 1(a) shows the energy to move a fixed 100 MB growing from
//    49 J at -90 dBm to 193 J at -115 dBm. We model a per-megabyte energy
//        e(s) = e_ref * exp(k * (s_ref - s))   [J/MB],  s in dBm
//    with e_ref = 0.49 J/MB at s_ref = -90 dBm and k = ln(193/49)/25 per dB.
//  * playback only — screen + decode power as an affine function of bitrate:
//        P_play(r) = P_base + c0 + c1 * r      [W]
//    calibrated so a 300 s session at -90 dBm reproduces Table VI's
//    597..708 J whole-phone range across the Table II ladder.
//
// Task energy (Eqs. 8-10 reconstruction): for task i downloading a segment of
// size B_i at signal s_i while the player plays buffered content,
//    E(i) = B_i * e(s_i)                       radio energy
//         + P_play(r_played) * t_play          playback energy
//         + P_pause * t_rebuf                  screen-on stalled time
// where the rebuffering term uses "P(0, s)" semantics — downloading continues
// (covered by the per-byte term) but no video plays.

#include <cstddef>

namespace eacs::power {

/// Coefficients of the power model (our Table IV).
struct PowerModelParams {
  // Radio per-byte energy e(s).
  double e_ref_j_per_mb = 0.49;   ///< J/MB at the reference signal
  double s_ref_dbm = -90.0;       ///< reference signal strength
  double k_per_db = 0.054823;     ///< ln(193/49)/25: halves/doubles per ~12.6 dB
  double e_min_j_per_mb = 0.05;   ///< clamp under excellent signal
  double e_max_j_per_mb = 8.0;    ///< clamp under terrible signal

  // Playback power P_play(r) = p_base + c0 + c1 * r.
  double p_base_w = 1.95;         ///< screen + SoC floor while video plays
  double c0_w = 0.01;             ///< decode pipeline fixed cost
  double c1_w_per_mbps = 0.006;   ///< decode cost growth with bitrate

  // Power while stalled (screen on, spinner, no decode).
  double p_pause_w = 1.80;

  // Optional LTE tail energy extension (RRC CONNECTED -> IDLE demotion):
  // charged once per download burst that is followed by radio idleness.
  double tail_energy_j = 0.0;     ///< 0 disables the tail model
};

/// Inputs for one task's energy (one segment download + its playback window).
struct TaskEnergyInput {
  double size_mb = 0.0;          ///< downloaded bytes for this task, MB
  double bitrate_mbps = 0.0;     ///< bitrate of the content being *played*
  double signal_dbm = -90.0;     ///< mean signal strength during the download
  double play_s = 0.0;           ///< seconds of video played during the task
  double rebuffer_s = 0.0;       ///< seconds stalled during the task
  std::size_t download_bursts = 1;  ///< bursts, for the tail-energy extension
};

/// Evaluates the power model.
class PowerModel {
 public:
  /// Throws std::invalid_argument, naming the field, unless every field is
  /// finite, e_ref_j_per_mb and p_base_w are > 0, k_per_db, c1_w_per_mbps,
  /// p_pause_w and tail_energy_j are >= 0, and e_min_j_per_mb <=
  /// e_max_j_per_mb.
  explicit PowerModel(PowerModelParams params = {});

  const PowerModelParams& params() const noexcept { return params_; }

  /// Radio energy to move one megabyte at signal strength `s_dbm` [J/MB].
  double energy_per_mb(double s_dbm) const noexcept;

  /// Radio energy for a transfer of `size_mb` at `s_dbm` [J].
  double download_energy(double size_mb, double s_dbm) const noexcept;

  /// Instantaneous radio power while downloading at `throughput_mbps` under
  /// signal `s_dbm`: e(s) * throughput [W]. Used by the Monsoon simulator.
  double download_power(double s_dbm, double throughput_mbps) const noexcept;

  /// Playback power at bitrate `r` [W] (includes the base/screen term).
  double playback_power(double bitrate_mbps) const noexcept;

  /// Power while stalled [W].
  double pause_power() const noexcept { return params_.p_pause_w; }

  /// Whole-task energy (Eq. 10 reconstruction) [J]:
  /// task_energy(input, energy_per_mb(input.signal_dbm)).
  double task_energy(const TaskEnergyInput& input) const noexcept;

  /// The same energy, given the radio's j_per_mb = energy_per_mb(s) of the
  /// task's signal (input.signal_dbm is not read): a caller pricing several
  /// tasks at one signal evaluates e(s) once. The one body of Eqs. 8-10.
  double task_energy(const TaskEnergyInput& input,
                     double j_per_mb) const noexcept;

 private:
  PowerModelParams params_;
};

}  // namespace eacs::power
