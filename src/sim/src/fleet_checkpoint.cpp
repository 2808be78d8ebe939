#include "eacs/sim/fleet_checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <ranges>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace eacs::sim {
namespace {

constexpr char kMagic[] = "EACS_FLEET_CKPT";
constexpr std::uint64_t kVersion = 1;

// ---------------------------------------------------------------------------
// Token encoding of the sidecar and the config fingerprint. Every value
// becomes u64 tokens: doubles their IEEE-754 bit patterns (std::bit_cast),
// signed integers two's complement — exact, portable, diffable. A
// std::vector is a length token and then its elements, a std::array its
// elements, and a struct the values its fields() list names, in that order.
// The encoder and the reader walk the same lists, so no struct's fields are
// spelled out twice. The sidecar writes each token in decimal on its own
// line.

template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

void fields(Is<FleetCheckpoint> auto& c, auto&& f) {
  f(c.config_fingerprint, c.checkpoint_t_s, c.regions);
}

void fields(Is<FleetRegionCheckpoint> auto& r, auto&& f) {
  f(r.region, r.live, r.events, r.arena, r.cell_active, r.metrics, r.qoe,
    r.energy_j, r.bitrate_mbps, r.rebuffer_s, r.startup_s, r.qoe_sample,
    r.energy_sample, r.rebuffer_sample, r.median_qoe, r.median_energy, r.shed,
    r.cache);
}

void fields(Is<FleetEventState> auto& e, auto&& f) {
  f(e.t_s, e.session, e.kind, e.slot);
}

void fields(Is<FleetArenaState> auto& a, auto&& f) {
  f(a.window);
  FleetArenaState::columns(a, [&](const char*, auto& column, auto&&...) {
    f(column);
  });
  f(a.free_slots);
}

void fields(Is<FleetRegionMetrics> auto& m, auto&& f) {
  f(m.region, m.first_cell, m.num_cells, m.sessions, m.events, m.requests,
    m.handoffs, m.stall_events, m.peak_live_sessions, m.escape_handoffs,
    m.backoff_retries, m.abandoned_sessions, m.policy_sheds,
    m.policy_recoveries, m.shed_decisions, m.degraded_time_s,
    m.wasted_energy_j, m.median_qoe, m.median_energy_j, m.planner);
}

void fields(Is<core::CostStats> auto& c, auto&& f) {
  f(c.qoe_model_evals, c.power_model_evals, c.edge_evals, c.tables_built,
    c.plans, c.cache_hits, c.cache_misses, c.cache_evictions);
}

void fields(Is<RunningStatsState> auto& s, auto&& f) {
  f(s.count, s.mean, s.m2, s.sum, s.min, s.max);
}

void fields(Is<ReservoirSamplerState> auto& s, auto&& f) {
  f(s.capacity, s.count, s.rng, s.items);
}

void fields(Is<RngState> auto& s, auto&& f) {
  f(s.words, s.cached_normal, s.has_cached_normal);
}

void fields(Is<P2QuantileState> auto& s, auto&& f) {
  f(s.p, s.count, s.heights, s.positions, s.desired, s.increments);
}

void fields(Is<FleetShedState> auto& s, auto&& f) {
  f(s.live_shed, s.miss_shed, s.shed_until_s, s.window_consults,
    s.window_misses);
}

void fields(Is<core::DecisionCacheState> auto& c, auto&& f) {
  f(c.stats, c.entries);
}

void fields(Is<core::DecisionCacheStats> auto& s, auto&& f) {
  f(s.hits, s.misses, s.evictions);
}

void fields(Is<core::DecisionCacheState::Entry> auto& e, auto&& f) {
  f(e.slot, e.key, e.level);
}

void fields(Is<core::DecisionKey> auto& k, auto&& f) {
  f(k.ladder_id, k.alpha_bits, k.buffer, k.bandwidth, k.vibration,
    k.confidence, k.signal, k.remaining, k.prev_level);
}

// The fault episodes, which the config fingerprint hashes.
void fields(Is<CellOutage> auto& o, auto&& f) {
  f(o.t0_s, o.t1_s, o.first_cell, o.num_cells);
}

void fields(Is<CapacityBrownout> auto& b, auto&& f) {
  f(b.t0_s, b.t1_s, b.first_cell, b.num_cells, b.capacity_factor);
}

void fields(Is<SignalCollapse> auto& c, auto&& f) {
  f(c.t0_s, c.t1_s, c.first_cell, c.num_cells, c.offset_db);
}

void fields(Is<ArrivalSurge> auto& s, auto&& f) {
  f(s.t0_s, s.t1_s, s.rate_multiplier);
}

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Hands every value to `token` as u64 tokens: the sidecar writer prints
/// them, the config fingerprint hashes them.
template <typename Token>
struct Encoder {
  Token token;

  void operator()(const auto&... vs) { (value(vs), ...); }

  template <typename T>
  void value(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      token(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      token(static_cast<std::uint64_t>(v));  // two's complement
    } else if constexpr (kIsVector<T>) {
      token(v.size());
      for (const auto& x : v) value(x);
    } else if constexpr (std::ranges::range<T>) {  // std::array
      for (const auto& x : v) value(x);
    } else {
      fields(v, *this);
    }
  }
};

/// Reads from memory, so a length token can be checked against the bytes
/// left before anything is allocated for it.
struct Reader {
  std::string_view text;
  std::size_t pos = 0;

  void operator()(auto&... vs) { (value(vs), ...); }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("load_fleet_checkpoint: " + what + " at byte " +
                             std::to_string(pos));
  }

  std::string_view word() {
    constexpr std::string_view kSpace = " \t\n\v\f\r";
    const std::size_t begin =
        std::min(text.find_first_not_of(kSpace, pos), text.size());
    pos = std::min(text.find_first_of(kSpace, begin), text.size());
    return text.substr(begin, pos - begin);
  }

  std::uint64_t token() {
    const std::string_view w = word();
    if (w.empty()) fail("truncated checkpoint");
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(w.data(), w.data() + w.size(), v);
    if (ec != std::errc{} || end != w.data() + w.size()) {
      fail("malformed token '" + std::string(w) + "'");
    }
    return v;
  }

  template <typename T>
  void value(T& v) {
    if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(token());
    } else if constexpr (std::is_integral_v<T>) {
      const std::uint64_t t = token();
      bool fits = false;
      if constexpr (std::is_same_v<T, bool>) {
        fits = t <= 1;
      } else if constexpr (std::is_signed_v<T>) {  // two's complement
        fits = std::in_range<T>(static_cast<std::int64_t>(t));
      } else {
        fits = std::in_range<T>(t);
      }
      if (!fits) {
        fail("integer token " + std::to_string(t) + " does not fit its field");
      }
      v = static_cast<T>(t);
    } else if constexpr (kIsVector<T>) {
      // Each element takes at least one token: a digit and a separator.
      const std::uint64_t n = token();
      if (n > (text.size() - pos) / 2) {
        fail("length token " + std::to_string(n) +
             " exceeds the bytes left in the file");
      }
      v.resize(n);
      for (auto& x : v) value(x);
    } else if constexpr (std::ranges::range<T>) {  // std::array
      for (auto& x : v) value(x);
    } else {
      fields(v, *this);
    }
  }
};

}  // namespace

std::uint64_t fleet_config_fingerprint(const FleetConfig& config) {
  // FNV-1a over the little-endian bytes of every token.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  Encoder f{[&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFULL;
      h *= 0x00000100000001b3ULL;
    }
  }};
  const CellNetworkConfig& n = config.network;
  f(n.num_cells);
  f(n.mean_capacity_mbps);
  f(n.capacity_spread);
  f(n.capacity_sway);
  f(n.capacity_period_s);
  f(n.signal_best_dbm);
  f(n.signal_worst_dbm);
  f(n.signal_swing_db);
  f(n.signal_period_s);
  f(n.seed);

  f(config.num_sessions);
  f(config.arrival_rate_per_s);
  f(config.segment_duration_s);
  f(config.segments_per_session);
  f(config.ladder_mbps);
  f(config.buffer_threshold_s);
  f(config.startup_buffer_s);
  f(config.abr_safety);
  f(config.bandwidth_window);
  f(config.vibration_cap_threshold);
  f(config.vibration_rung_cap);
  f(config.handoff_hysteresis_db);
  f(static_cast<std::uint64_t>(config.policy));
  f(config.planner_horizon);
  f(config.planner_startup_level);
  f(config.planner_alpha);
  const core::DecisionCacheConfig& c = config.planner_cache;
  f(c.exact);
  f(c.buffer_bucket_s);
  f(c.bandwidth_buckets_per_octave);
  f(c.vibration_bucket);
  f(c.confidence_bucket);
  f(c.signal_bucket_dbm);
  f(c.prev_level_bucket);
  f(c.capacity);
  f(config.regions);
  f(config.reservoir_capacity);

  const FleetFaultSpec& spec = config.faults;
  f(spec.outages);
  f(spec.brownouts);
  f(spec.collapses);
  f(spec.surges);
  const SeededFaultConfig& g = spec.seeded;
  f(g.horizon_s);
  f(g.epoch_s);
  f(g.domain_cells);
  f(g.outage_prob);
  f(g.outage_duration_s);
  f(g.brownout_prob);
  f(g.brownout_factor);
  f(g.brownout_duration_s);
  f(g.collapse_prob);
  f(g.collapse_db);
  f(g.collapse_duration_s);
  f(g.surge_prob);
  f(g.surge_multiplier);
  f(g.surge_duration_s);
  f(g.seed);

  const FleetResilienceConfig& r = config.resilience;
  f(r.backoff_base_s);
  f(r.backoff_factor);
  f(r.backoff_max_s);
  f(r.max_retries);
  f(r.shed_live_threshold);
  f(r.shed_live_recover);
  f(r.shed_miss_rate_threshold);
  f(r.shed_miss_window);
  f(r.shed_hold_s);

  const qoe::QoeModelParams& q = config.qoe;
  f(q.a);
  f(q.b);
  f(q.kappa);
  f(q.alpha_v);
  f(q.beta_r);
  f(q.switch_penalty);
  f(q.rebuffer_penalty_per_s);
  f(q.mos_min);
  f(q.mos_max);

  const power::PowerModelParams& p = config.power;
  f(p.e_ref_j_per_mb);
  f(p.s_ref_dbm);
  f(p.k_per_db);
  f(p.e_min_j_per_mb);
  f(p.e_max_j_per_mb);
  f(p.p_base_w);
  f(p.c0_w);
  f(p.c1_w_per_mbps);
  f(p.p_pause_w);
  f(p.tail_energy_j);

  f(config.seed);
  return h;
}

void save_fleet_checkpoint(const FleetCheckpoint& checkpoint,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_fleet_checkpoint: cannot open " + path);
  }
  out << kMagic << ' ' << kVersion << '\n';
  Encoder{[&out](std::uint64_t v) { out << v << '\n'; }}.value(checkpoint);
  out.flush();
  if (!out.good()) {
    throw std::runtime_error("save_fleet_checkpoint: write failed on " + path);
  }
}

FleetCheckpoint load_fleet_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_fleet_checkpoint: cannot open " + path);
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  Reader rd{text};
  if (rd.word() != kMagic || rd.word() != std::to_string(kVersion)) {
    throw std::runtime_error(
        "load_fleet_checkpoint: bad magic or unsupported version in " + path);
  }
  FleetCheckpoint checkpoint;
  rd.value(checkpoint);
  if (!rd.word().empty()) rd.fail("trailing data after the checkpoint");
  return checkpoint;
}

}  // namespace eacs::sim
