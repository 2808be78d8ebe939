#include "eacs/power/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace eacs::power {

PowerModel::PowerModel(PowerModelParams params) : params_(params) {
  const PowerModelParams& p = params_;
  const auto reject = [](const char* field, const char* rule) {
    throw std::invalid_argument(std::string("PowerModel: ") + field + rule);
  };
  const std::pair<const char*, double> fields[] = {
      {"e_ref_j_per_mb", p.e_ref_j_per_mb},
      {"s_ref_dbm", p.s_ref_dbm},
      {"k_per_db", p.k_per_db},
      {"e_min_j_per_mb", p.e_min_j_per_mb},
      {"e_max_j_per_mb", p.e_max_j_per_mb},
      {"p_base_w", p.p_base_w},
      {"c0_w", p.c0_w},
      {"c1_w_per_mbps", p.c1_w_per_mbps},
      {"p_pause_w", p.p_pause_w},
      {"tail_energy_j", p.tail_energy_j}};
  for (const auto& [field, value] : fields) {
    if (!std::isfinite(value)) reject(field, " must be finite");
  }
  if (p.e_ref_j_per_mb <= 0.0) reject("e_ref_j_per_mb", " must be > 0");
  if (p.p_base_w <= 0.0) reject("p_base_w", " must be > 0");
  const std::pair<const char*, double> non_negative[] = {
      {"k_per_db", p.k_per_db},
      {"c1_w_per_mbps", p.c1_w_per_mbps},
      {"p_pause_w", p.p_pause_w},
      {"tail_energy_j", p.tail_energy_j}};
  for (const auto& [field, value] : non_negative) {
    if (value < 0.0) reject(field, " must be >= 0");
  }
  // std::clamp's bounds: reversed ones are undefined behaviour.
  if (p.e_min_j_per_mb > p.e_max_j_per_mb) {
    reject("e_min_j_per_mb", " must be <= e_max_j_per_mb");
  }
}

double PowerModel::energy_per_mb(double s_dbm) const noexcept {
  const double e =
      params_.e_ref_j_per_mb * std::exp(params_.k_per_db * (params_.s_ref_dbm - s_dbm));
  return std::clamp(e, params_.e_min_j_per_mb, params_.e_max_j_per_mb);
}

double PowerModel::download_energy(double size_mb, double s_dbm) const noexcept {
  if (size_mb <= 0.0) return 0.0;
  return size_mb * energy_per_mb(s_dbm);
}

double PowerModel::download_power(double s_dbm, double throughput_mbps) const noexcept {
  if (throughput_mbps <= 0.0) return 0.0;
  const double mb_per_s = throughput_mbps / 8.0;
  return energy_per_mb(s_dbm) * mb_per_s;
}

double PowerModel::playback_power(double bitrate_mbps) const noexcept {
  const double r = std::max(0.0, bitrate_mbps);
  return params_.p_base_w + params_.c0_w + params_.c1_w_per_mbps * r;
}

double PowerModel::task_energy(const TaskEnergyInput& input) const noexcept {
  return task_energy(input, energy_per_mb(input.signal_dbm));
}

double PowerModel::task_energy(const TaskEnergyInput& input,
                               double j_per_mb) const noexcept {
  // download_energy's guard and product, on the given e(s).
  double energy = input.size_mb <= 0.0 ? 0.0 : input.size_mb * j_per_mb;
  if (input.play_s > 0.0) {
    energy += playback_power(input.bitrate_mbps) * input.play_s;
  }
  if (input.rebuffer_s > 0.0) {
    energy += pause_power() * input.rebuffer_s;
  }
  if (params_.tail_energy_j > 0.0 && input.size_mb > 0.0) {
    energy += params_.tail_energy_j * static_cast<double>(input.download_bursts);
  }
  return energy;
}

}  // namespace eacs::power
