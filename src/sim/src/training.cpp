#include "eacs/sim/training.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "eacs/abr/fixed.h"
#include "eacs/sim/metrics.h"
#include "eacs/util/rng.h"
#include "eacs/util/thread_pool.h"

namespace eacs::sim {

CemTrainer::CemTrainer(std::vector<TrainingEpisode> episodes,
                       player::PlayerConfig player_config, double alpha)
    : episodes_(std::move(episodes)), player_config_(player_config), alpha_(alpha) {
  if (episodes_.empty()) throw std::invalid_argument("CemTrainer: no episodes");
  if (alpha_ < 0.0 || alpha_ > 1.0) {
    throw std::invalid_argument("CemTrainer: alpha must be in [0, 1]");
  }
}

std::vector<TrainingEpisode> CemTrainer::make_episodes(
    std::vector<trace::SessionTraces> sessions, double segment_duration_s,
    const player::PlayerConfig& player_config) {
  std::vector<TrainingEpisode> episodes;
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  for (auto& session : sessions) {
    media::VideoManifest manifest("train" + std::to_string(episodes.size()),
                                  session.spec.length_s, segment_duration_s,
                                  media::BitrateLadder::evaluation14());
    const player::PlayerSimulator simulator(manifest, player_config);
    abr::FixedBitrate youtube;
    const auto playback = simulator.run(youtube, session);
    const double energy = session_energy_j(playback, power_model);
    const double qoe = session_mean_qoe(playback, qoe_model);
    episodes.push_back({std::move(session), std::move(manifest), energy, qoe});
  }
  return episodes;
}

double CemTrainer::evaluate(const std::vector<double>& weights) const {
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  double total = 0.0;
  for (const auto& episode : episodes_) {
    abr::LinearPolicy policy(weights);
    const player::PlayerSimulator simulator(episode.manifest, player_config_);
    const auto playback = simulator.run(policy, episode.session);
    const double energy = session_energy_j(playback, power_model);
    const double qoe = session_mean_qoe(playback, qoe_model);
    const double energy_term =
        episode.youtube_energy_j > 0.0 ? energy / episode.youtube_energy_j : 1.0;
    const double qoe_term = episode.youtube_qoe > 0.0 ? qoe / episode.youtube_qoe : 0.0;
    total += (1.0 - alpha_) * qoe_term - alpha_ * energy_term;
  }
  return total / static_cast<double>(episodes_.size());
}

TrainingResult CemTrainer::train(const CemConfig& config) const {
  if (config.elites == 0 || config.elites > config.population) {
    throw std::invalid_argument("CemTrainer: elites must be in [1, population]");
  }
  eacs::Rng rng(config.seed);
  std::vector<double> mean(abr::PolicyFeatures::kCount, 0.0);
  std::vector<double> sigma(abr::PolicyFeatures::kCount, config.initial_sigma);

  TrainingResult result;
  std::vector<std::pair<double, std::vector<double>>> scored(config.population);

  for (std::size_t iteration = 0; iteration < config.iterations; ++iteration) {
    // Sample the whole population serially (one shared RNG stream, same
    // draw order as the historical loop), then score the candidates in
    // parallel — evaluate() is pure, so scored[p] depends only on p.
    for (std::size_t p = 0; p < config.population; ++p) {
      std::vector<double> candidate(abr::PolicyFeatures::kCount);
      for (std::size_t i = 0; i < candidate.size(); ++i) {
        candidate[i] = rng.normal(mean[i], sigma[i]);
      }
      scored[p] = {0.0, std::move(candidate)};
    }
    const auto rewards = util::parallel_map(
        config.exec.resolved_jobs(), config.population,
        [&](std::size_t p) { return evaluate(scored[p].second); });
    for (std::size_t p = 0; p < config.population; ++p) {
      scored[p].first = rewards[p];
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    result.reward_history.push_back(scored.front().first);

    // Refit the sampling distribution on the elites.
    for (std::size_t i = 0; i < mean.size(); ++i) {
      double elite_mean = 0.0;
      for (std::size_t e = 0; e < config.elites; ++e) {
        elite_mean += scored[e].second[i];
      }
      elite_mean /= static_cast<double>(config.elites);
      double elite_var = 0.0;
      for (std::size_t e = 0; e < config.elites; ++e) {
        const double d = scored[e].second[i] - elite_mean;
        elite_var += d * d;
      }
      elite_var /= static_cast<double>(config.elites);
      mean[i] = elite_mean;
      sigma[i] = std::max(config.min_sigma, std::sqrt(elite_var));
    }
  }

  result.weights = mean;
  result.final_reward = evaluate(mean);
  return result;
}

}  // namespace eacs::sim
