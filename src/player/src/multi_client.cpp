#include "eacs/player/multi_client.h"

#include <stdexcept>
#include <utility>

namespace eacs::player {

double jain_fairness(std::span<const double> xs) {
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

MultiClientSimulator::MultiClientSimulator(trace::TimeSeries shared_capacity_mbps,
                                           MultiClientConfig config)
    : capacity_(std::move(shared_capacity_mbps)), config_(config) {
  if (capacity_.empty()) {
    throw std::invalid_argument("MultiClientSimulator: empty capacity trace");
  }
  if (!(config_.step_s > 0.0)) {
    throw std::invalid_argument("MultiClientSimulator: step must be > 0");
  }
}

std::vector<PlaybackResult> MultiClientSimulator::run(
    std::span<const ClientSetup> clients, SessionObserver* observer) const {
  const CellularLinkModel link(capacity_);
  const SessionEngine engine(
      SessionEngineConfig{config_.player, config_.step_s, config_.max_session_s});
  return engine.run(clients, link, observer);
}

}  // namespace eacs::player
