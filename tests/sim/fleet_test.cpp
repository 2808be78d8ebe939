// Fleet-scale simulation: the procedural CellNetwork and the sharded,
// event-driven run_fleet path (DESIGN §12). The load-bearing claims: every
// query is pure, results are bit-identical at any job count, event counts
// obey conservation invariants, and the live set — not the total session
// count — bounds the state.
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/sim/cell_network.h"
#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_faults.h"

namespace eacs::sim {
namespace {

CellNetworkConfig small_network() {
  CellNetworkConfig config;
  config.num_cells = 8;
  return config;
}

FleetConfig small_fleet() {
  FleetConfig config;
  config.network = small_network();
  config.num_sessions = 400;
  config.arrival_rate_per_s = 4.0;
  config.segments_per_session = 12;
  config.regions = 4;
  return config;
}

TEST(CellNetworkTest, ValidatesConfig) {
  CellNetworkConfig config;
  config.num_cells = 0;
  EXPECT_THROW(CellNetwork{config}, std::invalid_argument);
  // Configs that would run at zero or NaN capacity or signal.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double CellNetworkConfig::*field :
       {&CellNetworkConfig::mean_capacity_mbps,
        &CellNetworkConfig::capacity_spread, &CellNetworkConfig::capacity_sway,
        &CellNetworkConfig::capacity_period_s,
        &CellNetworkConfig::signal_best_dbm,
        &CellNetworkConfig::signal_worst_dbm,
        &CellNetworkConfig::signal_swing_db,
        &CellNetworkConfig::signal_period_s}) {
    for (const double bad : {nan, inf}) {
      config = CellNetworkConfig{};
      config.*field = bad;
      EXPECT_THROW(CellNetwork{config}, std::invalid_argument);
    }
  }
  for (const double bad : {0.0, -5.0}) {
    config = CellNetworkConfig{};
    config.capacity_period_s = bad;
    EXPECT_THROW(CellNetwork{config}, std::invalid_argument);
    config = CellNetworkConfig{};
    config.signal_period_s = bad;
    EXPECT_THROW(CellNetwork{config}, std::invalid_argument);
    config = CellNetworkConfig{};
    config.mean_capacity_mbps = bad;
    EXPECT_THROW(CellNetwork{config}, std::invalid_argument);
  }
  for (const double bad : {-0.1, 1.5}) {
    config = CellNetworkConfig{};
    config.capacity_spread = bad;
    EXPECT_THROW(CellNetwork{config}, std::invalid_argument);
  }
  // A constant network (no spread, sway or swing) stays valid.
  config = CellNetworkConfig{};
  config.capacity_spread = 0.0;
  config.capacity_sway = 0.0;
  config.signal_swing_db = 0.0;
  EXPECT_NO_THROW(CellNetwork{config});
  // run_fleet rejects a malformed network the same way.
  FleetConfig fleet = small_fleet();
  fleet.network.capacity_period_s = 0.0;
  EXPECT_THROW(run_fleet(fleet), std::invalid_argument);
}

TEST(CellNetworkTest, CapacityIsNonNegativeAndVaries) {
  const CellNetwork network(small_network());
  double lo = 1e300;
  double hi = -1e300;
  for (std::size_t cell = 0; cell < network.num_cells(); ++cell) {
    for (double t = 0.0; t < 200.0; t += 5.0) {
      const double c = network.capacity_mbps(cell, t);
      EXPECT_GE(c, 0.0);
      lo = std::min(lo, c);
      hi = std::max(hi, c);
      // Purity: asking twice gives the identical answer.
      EXPECT_EQ(c, network.capacity_mbps(cell, t));
    }
  }
  EXPECT_GT(hi, lo);  // cells differ / swing over time
}

TEST(CellNetworkTest, SignalStaysInModelRange) {
  const auto config = small_network();
  const CellNetwork network(config);
  const double floor = config.signal_worst_dbm - config.signal_swing_db;
  const double ceiling = config.signal_best_dbm + config.signal_swing_db;
  for (int session : {0, 1, 12345}) {
    for (std::size_t cell = 0; cell < network.num_cells(); ++cell) {
      for (double t = 0.0; t < 120.0; t += 7.0) {
        const double dbm = network.signal_dbm(session, cell, t);
        EXPECT_GE(dbm, floor);
        EXPECT_LE(dbm, ceiling);
      }
    }
  }
}

TEST(CellNetworkTest, BestCellRespectsRangeRestriction) {
  const CellNetwork network(small_network());
  for (int session : {3, 77}) {
    for (double t : {0.0, 31.0, 93.0}) {
      const std::size_t best =
          network.best_cell_in(session, t, 0, network.num_cells());
      EXPECT_LT(best, network.num_cells());
      const std::size_t restricted = network.best_cell_in(session, t, 4, 4);
      EXPECT_GE(restricted, 4U);
      EXPECT_LT(restricted, 8U);
      // The restricted winner really is the strongest in its window.
      for (std::size_t c = 4; c < 8; ++c) {
        EXPECT_GE(network.signal_dbm(session, restricted, t),
                  network.signal_dbm(session, c, t));
      }
    }
  }
}

TEST(CellNetworkTest, ServingCellHysteresisBlocksSmallGains) {
  const CellNetwork network(small_network());
  for (int session = 0; session < 40; ++session) {
    for (double t : {5.0, 50.0, 110.0}) {
      const std::size_t current =
          network.best_cell_in(session, 0.0, 0, network.num_cells());
      const std::size_t serving = network.serving_cell(
          session, current, t, 3.0, 0, network.num_cells());
      if (serving != current) {
        // Any switch must clear the hysteresis margin.
        EXPECT_GT(network.signal_dbm(session, serving, t),
                  network.signal_dbm(session, current, t) + 3.0);
      } else {
        // Sticking is only allowed when no cell clears the margin.
        const std::size_t best =
            network.best_cell_in(session, t, 0, network.num_cells());
        EXPECT_LE(network.signal_dbm(session, best, t),
                  network.signal_dbm(session, current, t) + 3.0);
      }
    }
  }
}

// A scripted overlay on the first 8 cells: cells 4-7 are dead over
// [0, 100) s, cells 0-1 collapse by 18 dB and cells 2-3 brown out to a third
// over [0, 200) s.
FleetFaultModel scripted_faults(std::size_t num_cells = 8) {
  FleetFaultSpec spec;
  spec.outages.push_back(
      {.t0_s = 0.0, .t1_s = 100.0, .first_cell = 4, .num_cells = 4});
  spec.collapses.push_back({.t0_s = 0.0,
                            .t1_s = 200.0,
                            .first_cell = 0,
                            .num_cells = 2,
                            .offset_db = -18.0});
  spec.brownouts.push_back({.t0_s = 0.0,
                            .t1_s = 200.0,
                            .first_cell = 2,
                            .num_cells = 2,
                            .capacity_factor = 1.0 / 3.0});
  return FleetFaultModel(spec, num_cells);
}

TEST(CellNetworkTest, OverlayNeverChoosesADeadCell) {
  const CellNetwork network(small_network());
  const FleetFaultModel faults = scripted_faults();
  for (int session = 0; session < 40; ++session) {
    for (const double t : {5.0, 50.0, 99.0}) {
      const std::size_t best = network.best_cell_in(session, t, 2, 6, &faults);
      EXPECT_TRUE(best == 2 || best == 3) << "session " << session;
      // The live winner is the strongest live cell by overlaid signal.
      EXPECT_GE(network.signal_dbm(session, best, t, &faults),
                network.signal_dbm(session, 5 - best, t, &faults));
      for (std::size_t current = 0; current < 8; ++current) {
        EXPECT_LT(network.serving_cell(session, current, t, 3.0, 0, 8, &faults),
                  4U);
      }
    }
    // Once the outage ends the dead block is eligible again, as on the
    // healthy network.
    EXPECT_EQ(network.best_cell_in(session, 150.0, 4, 4, &faults),
              network.best_cell_in(session, 150.0, 4, 4));
  }
}

TEST(CellNetworkTest, DeadServingCellEscapesWithoutMargin) {
  const CellNetwork network(small_network());
  const FleetFaultModel faults = scripted_faults();
  for (int session = 0; session < 40; ++session) {
    const double t = 10.0;
    const std::size_t best = network.best_cell_in(session, t, 0, 8, &faults);
    // No hysteresis margin holds a session on a dead cell...
    EXPECT_EQ(network.serving_cell(session, 6, t, 1e9, 0, 8, &faults), best);
    // ...but a live serving cell still sticks under a huge margin.
    EXPECT_EQ(network.serving_cell(session, 1, t, 1e9, 0, 8, &faults), 1U);
  }
}

TEST(CellNetworkTest, AllDeadRangeReturnsNumCells) {
  const CellNetwork network(small_network());
  const FleetFaultModel faults = scripted_faults();
  for (int session = 0; session < 10; ++session) {
    EXPECT_EQ(network.best_cell_in(session, 20.0, 4, 4, &faults),
              network.num_cells());
    EXPECT_EQ(network.serving_cell(session, 5, 20.0, 3.0, 4, 4, &faults),
              network.num_cells());
    EXPECT_LT(network.best_cell_in(session, 100.0, 4, 4, &faults),
              network.num_cells());
  }
}

TEST(CellNetworkTest, OverlaidSignalAndCapacityAreExact) {
  const CellNetwork network(small_network());
  const FleetFaultModel faults = scripted_faults();
  for (std::size_t cell = 0; cell < 8; ++cell) {
    for (const double t : {0.0, 37.0, 150.0, 250.0}) {
      const double offset = cell < 2 && t < 200.0 ? -18.0 : 0.0;
      const double factor =
          cell >= 2 && cell < 4 && t < 200.0 ? 1.0 / 3.0 : 1.0;
      for (const int session : {0, 7, 12345}) {
        EXPECT_EQ(network.signal_dbm(session, cell, t, &faults),
                  network.signal_dbm(session, cell, t) + offset);
      }
      EXPECT_EQ(network.capacity_mbps(cell, t, &faults),
                network.capacity_mbps(cell, t) * factor);
    }
  }
}

// The cell-choice rule written out as an exhaustive scan: every live cell's
// signal_dbm, strict `>` so the lowest index wins ties; num_cells() when
// every cell in the range is dead.
std::size_t exhaustive_best(const CellNetwork& network, int session, double t,
                            std::size_t first, std::size_t count,
                            const FleetFaultModel* faults) {
  std::size_t best = network.num_cells();
  double best_dbm = -std::numeric_limits<double>::infinity();
  for (std::size_t c = first; c < first + count; ++c) {
    if (faults != nullptr && faults->cell_dead(c, t)) continue;
    const double v = network.signal_dbm(session, c, t, faults);
    if (v > best_dbm) {
      best_dbm = v;
      best = c;
    }
  }
  return best;
}

// The hysteresis rule on top of it: stay when the serving cell wins the
// scan, escape a dead serving cell, otherwise switch only when the winner's
// gain clears the margin.
std::size_t exhaustive_serving(const CellNetwork& network, int session,
                               std::size_t current, double t,
                               double hysteresis_db, std::size_t first,
                               std::size_t count,
                               const FleetFaultModel* faults) {
  const std::size_t best =
      exhaustive_best(network, session, t, first, count, faults);
  if (best == current) return current;
  if (faults != nullptr && faults->cell_dead(current, t)) return best;
  const double gain = network.signal_dbm(session, best, t, faults) -
                      network.signal_dbm(session, current, t, faults);
  return gain > hysteresis_db ? best : current;
}

// Cell c's per-session base level: the signal of the same network with no
// swing, which is the base exactly (base + 0 * sin).
double base_dbm(CellNetworkConfig config, int session, std::size_t cell) {
  config.signal_swing_db = 0.0;
  return CellNetwork(config).signal_dbm(session, cell, 0.0);
}

// A network whose bases take two values one ulp apart, -80 and -80 + 2^-46,
// with no swing; and an overlay that collapses cells 1-255 by exactly that
// gap over [0, 200) s. A collapsed high-base cell then ties a low-base cell
// of lower index that the ranked walk visits after it: the walk must price
// a ceiling equal to the best and keep the tie at the lower index.
CellNetworkConfig two_level_network() {
  CellNetworkConfig config;
  config.num_cells = 256;
  config.signal_worst_dbm = -80.0;
  config.signal_best_dbm = -80.0 + 0x1p-46;
  config.signal_swing_db = 0.0;
  return config;
}

FleetFaultModel gap_collapse() {
  FleetFaultSpec spec;
  spec.collapses.push_back({.t0_s = 0.0,
                            .t1_s = 200.0,
                            .first_cell = 1,
                            .num_cells = 255,
                            .offset_db = -0x1p-46});
  return FleetFaultModel(spec, 256);
}

TEST(CellNetworkTest, RankCellsOrdersByBaseThenIndex) {
  CellNetworkConfig swung;
  swung.num_cells = 256;
  CellNetworkConfig ties = swung;
  ties.signal_best_dbm = ties.signal_worst_dbm = -80.0;
  for (const CellNetworkConfig& config : {swung, ties, two_level_network()}) {
    const CellNetwork network(config);
    for (const int session : {0, 1, 7, 42, 12345}) {
      for (const auto& [first, count] :
           {std::pair<std::size_t, std::size_t>{0, 1}, {0, 2}, {3, 32},
            {0, 256}}) {
        std::vector<std::size_t> ranked(count);
        network.rank_cells(session, first, count, ranked);
        std::vector<std::size_t> sorted = ranked;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(sorted[i], first + i) << "not a permutation of the range";
        }
        for (std::size_t i = 1; i < count; ++i) {
          const double hi = base_dbm(config, session, ranked[i - 1]);
          const double lo = base_dbm(config, session, ranked[i]);
          EXPECT_TRUE(hi > lo || (hi == lo && ranked[i - 1] < ranked[i]))
              << "session " << session << " position " << i;
        }
      }
    }
  }
  // The two-level network has exactly its two levels, and the all-ties one
  // ranks in index order.
  std::vector<double> levels;
  for (std::size_t c = 0; c < 256; ++c) {
    levels.push_back(base_dbm(two_level_network(), 7, c));
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  EXPECT_EQ(levels, (std::vector<double>{-80.0, -80.0 + 0x1p-46}));
  std::vector<std::size_t> ranked(32);
  CellNetwork(ties).rank_cells(7, 3, 32, ranked);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(ranked[i], 3 + i);
  EXPECT_THROW(CellNetwork(ties).rank_cells(7, 3, 31, ranked),
               std::invalid_argument);
}

TEST(CellNetworkTest, PrunedChoiceMatchesExhaustiveScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const FleetFaultModel faults = scripted_faults(256);
  const FleetFaultModel gap = gap_collapse();
  // (first, count): ranges of 1, 2, 32 and 256 cells, some inside the
  // scripted outage block 4-7 and collapse block 0-1.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 1}, {5, 1}, {0, 2}, {4, 2}, {0, 32}, {3, 32}, {224, 32}, {0, 256}};
  std::vector<CellNetworkConfig> configs;
  for (const double swing : {12.0, 0.0, -12.0}) {
    CellNetworkConfig config;
    config.num_cells = 256;
    config.signal_swing_db = swing;
    configs.push_back(config);
  }
  CellNetworkConfig ties;  // every cell has the same signal at every instant
  ties.num_cells = 256;
  ties.signal_best_dbm = ties.signal_worst_dbm = -80.0;
  ties.signal_swing_db = 0.0;
  configs.push_back(ties);
  configs.push_back(two_level_network());

  std::size_t lower_index_ties = 0;  // ties the walk meets out of index order
  for (const CellNetworkConfig& config : configs) {
    const CellNetwork network(config);
    const bool all_ties = config.signal_best_dbm == config.signal_worst_dbm;
    for (const FleetFaultModel* overlay :
         {static_cast<const FleetFaultModel*>(nullptr), &faults, &gap}) {
      for (const int session : {0, 1, 7, 42, 12345}) {
        for (const double t : {0.0, 10.0, 55.5, 150.0, 250.0}) {
          for (const auto& [first, count] : ranges) {
            std::vector<std::size_t> ranked(count);
            network.rank_cells(session, first, count, ranked);
            // The returned signal is the returned cell's; none without one.
            const auto expect_signal = [&](const CellChoice& choice) {
              if (choice.cell < network.num_cells()) {
                EXPECT_EQ(choice.dbm, network.signal_dbm(session, choice.cell,
                                                         t, overlay));
              } else {
                EXPECT_EQ(choice.dbm,
                          -std::numeric_limits<double>::infinity());
              }
            };
            const std::size_t best =
                exhaustive_best(network, session, t, first, count, overlay);
            ASSERT_EQ(network.best_cell_in(session, t, first, count, overlay),
                      best)
                << "session " << session << " t " << t << " range " << first
                << "+" << count;
            const CellChoice ranked_best =
                network.best_cell_in(session, t, ranked, overlay);
            ASSERT_EQ(ranked_best.cell, best);
            expect_signal(ranked_best);
            if (overlay == &gap && ranked.front() != best &&
                network.signal_dbm(session, ranked.front(), t, overlay) ==
                    ranked_best.dbm) {
              ++lower_index_ties;
            }
            if (all_ties && overlay == nullptr) {
              EXPECT_EQ(best, first);  // the lowest index wins a tie
            }
            // Serving cells: the strongest, an arbitrary one, and one the
            // overlay kills before t = 100 s.
            std::vector<std::size_t> currents = {
                first + (static_cast<std::size_t>(session) * 7 + 3) % count};
            if (best < network.num_cells()) currents.push_back(best);
            const std::size_t dead = std::max<std::size_t>(first, 4);
            if (dead < 8 && dead < first + count) currents.push_back(dead);
            for (const std::size_t current : currents) {
              for (const double margin : {0.0, 3.0, 1e9, -1.0, nan}) {
                const std::size_t want = exhaustive_serving(
                    network, session, current, t, margin, first, count,
                    overlay);
                ASSERT_EQ(network.serving_cell(session, current, t, margin,
                                               first, count, overlay),
                          want)
                    << "session " << session << " current " << current
                    << " t " << t << " margin " << margin << " range "
                    << first << "+" << count;
                const CellChoice serving = network.serving_cell(
                    session, current, t, margin, ranked, overlay);
                ASSERT_EQ(serving.cell, want);
                expect_signal(serving);
                if (all_ties && overlay == nullptr && !(margin < 0.0)) {
                  EXPECT_EQ(want, current);  // a tie never clears a margin
                }
              }
            }
          }
        }
      }
    }
  }
  // The two-level network under the gap collapse produced ties the walk
  // meets after a higher-index cell.
  EXPECT_GT(lower_index_ties, 0U);
}

TEST(FleetTest, ValidatesConfig) {
  FleetConfig config = small_fleet();
  config.ladder_mbps.clear();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.num_sessions = 0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.segments_per_session = 0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.arrival_rate_per_s = 0.0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.ladder_mbps = {1.0, -2.0};
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.buffer_threshold_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.bandwidth_window = 0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.abr_safety = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  // Session ids are int: a count past INT_MAX throws instead of wrapping
  // (2^32 + 6 once ran 6 sessions).
  config = small_fleet();
  config.num_sessions = (std::size_t{1} << 32) + 6;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config.num_sessions =
      static_cast<std::size_t>(std::numeric_limits<int>::max()) + 1;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  // A NaN or infinite margin used to turn off every margin handoff, and a
  // negative one acted as 0.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    config = small_fleet();
    config.handoff_hysteresis_db = bad;
    EXPECT_THROW(run_fleet(config), std::invalid_argument);
  }
  config = small_fleet();
  config.handoff_hysteresis_db = 0.0;
  EXPECT_EQ(run_fleet(config).sessions, config.num_sessions);
  // A startup rung beyond the ladder used to be clamped to the top rung;
  // the throughput policy never reads it.
  config = small_fleet();
  config.policy = FleetPolicy::kPlanner;
  config.planner_startup_level = config.ladder_mbps.size();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config.planner_startup_level = config.ladder_mbps.size() - 1;
  EXPECT_EQ(run_fleet(config).sessions, config.num_sessions);
  config.policy = FleetPolicy::kThroughput;
  config.planner_startup_level = config.ladder_mbps.size();
  EXPECT_EQ(run_fleet(config).sessions, config.num_sessions);
  // A NaN cap threshold used to switch the rung cap off silently, and a zero
  // reservoir or an out-of-range planner alpha threw from inside a region
  // worker without run_fleet's context. All are rejected up front now.
  const auto expect_rejected = [](const FleetConfig& bad) {
    try {
      (void)run_fleet(bad);
      ADD_FAILURE() << "config accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind("run_fleet: ", 0), 0U)
          << error.what();
    }
  };
  config = small_fleet();
  config.vibration_cap_threshold = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(config);
  config = small_fleet();
  config.reservoir_capacity = 0;
  expect_rejected(config);
  config = small_fleet();
  config.policy = FleetPolicy::kPlanner;
  for (const double alpha : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    config.planner_alpha = alpha;
    expect_rejected(config);
  }
  // +inf is how a caller disables the cap (cross_engine_test does).
  config = small_fleet();
  config.vibration_cap_threshold = std::numeric_limits<double>::infinity();
  EXPECT_EQ(run_fleet(config).sessions, config.num_sessions);
}

TEST(FleetTest, ConservationInvariants) {
  const auto config = small_fleet();
  const auto metrics = run_fleet(config);
  // Every session arrives, finishes, and issues exactly one request per
  // segment (throttle wakeups re-enter the queue but issue nothing).
  EXPECT_EQ(metrics.sessions, config.num_sessions);
  EXPECT_EQ(metrics.requests, config.num_sessions * config.segments_per_session);
  // arrivals + (request wakeups >= requests) + completions.
  EXPECT_GE(metrics.events, config.num_sessions + 2 * metrics.requests);
  EXPECT_EQ(metrics.qoe.count(), config.num_sessions);
  EXPECT_EQ(metrics.energy_j.count(), config.num_sessions);
  EXPECT_GT(metrics.qoe.mean(), 0.0);
  EXPECT_GT(metrics.energy_j.mean(), 0.0);
  EXPECT_GT(metrics.bitrate_mbps.mean(), 0.0);
  // Region bookkeeping tiles the fleet exactly.
  std::size_t region_sessions = 0;
  std::size_t region_cells = 0;
  for (const auto& region : metrics.regions) {
    region_sessions += region.sessions;
    region_cells += region.num_cells;
  }
  EXPECT_EQ(region_sessions, config.num_sessions);
  EXPECT_EQ(region_cells, config.network.num_cells);
}

TEST(FleetTest, BitIdenticalAcrossJobCounts) {
  FleetConfig config = small_fleet();
  config.exec = ExecutionPolicy{1};
  const auto serial = run_fleet(config);
  for (const std::size_t jobs : {2, 8}) {
    config.exec = ExecutionPolicy{jobs};
    const auto parallel = run_fleet(config);
    EXPECT_EQ(parallel.sessions, serial.sessions);
    EXPECT_EQ(parallel.events, serial.events);
    EXPECT_EQ(parallel.requests, serial.requests);
    EXPECT_EQ(parallel.handoffs, serial.handoffs);
    EXPECT_EQ(parallel.stall_events, serial.stall_events);
    EXPECT_EQ(parallel.peak_live_sessions, serial.peak_live_sessions);
    // Bit-identical floating-point aggregates, not just "close".
    EXPECT_EQ(parallel.qoe.mean(), serial.qoe.mean());
    EXPECT_EQ(parallel.qoe.variance(), serial.qoe.variance());
    EXPECT_EQ(parallel.energy_j.sum(), serial.energy_j.sum());
    EXPECT_EQ(parallel.rebuffer_s.sum(), serial.rebuffer_s.sum());
    EXPECT_EQ(parallel.qoe_quantile(0.5), serial.qoe_quantile(0.5));
    EXPECT_EQ(parallel.energy_quantile(0.9), serial.energy_quantile(0.9));
    ASSERT_EQ(parallel.regions.size(), serial.regions.size());
    for (std::size_t r = 0; r < serial.regions.size(); ++r) {
      EXPECT_EQ(parallel.regions[r].events, serial.regions[r].events);
      EXPECT_EQ(parallel.regions[r].median_qoe, serial.regions[r].median_qoe);
    }
  }
}

TEST(FleetTest, HandoffsHappen) {
  FleetConfig config = small_fleet();
  config.num_sessions = 800;
  const auto metrics = run_fleet(config);
  EXPECT_GT(metrics.handoffs, 0U);
}

TEST(FleetTest, LiveSetStaysBoundedAsFleetGrows) {
  // O(live) state: 10x the sessions at the same arrival rate must not grow
  // the peak live set — Little's law bounds it by rate x session length.
  FleetConfig small = small_fleet();
  small.num_sessions = 500;
  FleetConfig large = small_fleet();
  large.num_sessions = 5000;
  const auto small_metrics = run_fleet(small);
  const auto large_metrics = run_fleet(large);
  EXPECT_EQ(large_metrics.sessions, 5000U);
  // The peak live set is far below the fleet size...
  EXPECT_LT(large_metrics.peak_live_sessions, large.num_sessions / 4);
  // ...and grows sublinearly (at most ~2x for 10x sessions: the steady
  // state, not the fleet, sets it).
  EXPECT_LT(large_metrics.peak_live_sessions,
            2 * std::max<std::size_t>(small_metrics.peak_live_sessions, 1));
}

TEST(FleetTest, VibrationCapLowersBitrateForShakySessions) {
  // With the cap disabled (threshold above any procedural draw) the fleet
  // mean bitrate must not drop; with an aggressive cap it must.
  FleetConfig capped = small_fleet();
  capped.vibration_cap_threshold = 0.0;  // every session capped
  capped.vibration_rung_cap = 0;
  FleetConfig uncapped = small_fleet();
  uncapped.vibration_cap_threshold = 1e9;  // no session capped
  const auto capped_metrics = run_fleet(capped);
  const auto uncapped_metrics = run_fleet(uncapped);
  EXPECT_LT(capped_metrics.bitrate_mbps.mean(),
            uncapped_metrics.bitrate_mbps.mean());
  // Energy follows bitrate down (the paper's energy/quality trade).
  EXPECT_LT(capped_metrics.energy_j.mean(), uncapped_metrics.energy_j.mean());
}

TEST(FleetTest, LongSessionsThrottleAtBufferThresholdAndTerminate) {
  // 60 segments x 2 s = 120 s of media against a 30 s buffer threshold:
  // every session crosses the throttle and must sleep-and-resume, not spin.
  // (Regression: a wake scheduled < 1 ulp ahead used to re-enqueue at the
  // identical timestamp forever once the buffer sat one ulp above the
  // threshold after a wakeup drain.)
  FleetConfig config = small_fleet();
  config.num_sessions = 100;
  config.segments_per_session = 60;
  const auto metrics = run_fleet(config);
  EXPECT_EQ(metrics.sessions, config.num_sessions);
  EXPECT_EQ(metrics.requests, config.num_sessions * config.segments_per_session);
  // Throttle wakeups re-enter the queue as extra request events.
  EXPECT_GT(metrics.events, config.num_sessions + 2 * metrics.requests);
}

TEST(FleetTest, MoreRegionsThanCellsThrows) {
  // Regression: this used to clamp silently to one cell per region, hiding a
  // misconfigured sweep. A region must own at least one cell, so anything
  // outside [1, num_cells] is rejected up front.
  FleetConfig config = small_fleet();
  config.regions = 64;  // > num_cells
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config.regions = 0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config.regions = config.network.num_cells;  // boundary: one cell per region
  EXPECT_EQ(run_fleet(config).regions.size(), config.network.num_cells);
}

TEST(FleetTest, ValidatesNonFiniteConfig) {
  FleetConfig config = small_fleet();
  config.arrival_rate_per_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.arrival_rate_per_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.segment_duration_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.segment_duration_s = 0.0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.ladder_mbps = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
}

TEST(FleetTest, ValidatesResilienceConfig) {
  FleetConfig config = small_fleet();
  config.resilience.backoff_base_s = 0.0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.resilience.backoff_factor = 0.5;  // must be >= 1
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.resilience.backoff_max_s = 1.0;  // below backoff_base_s
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.resilience.backoff_base_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.resilience.max_retries = 0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config = small_fleet();
  config.resilience.shed_miss_rate_threshold = 0.5;  // enabled...
  config.resilience.shed_miss_window = 0;            // ...but no window
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// kPlanner policy: the Eq. 11 planner on every client, memoized through one
// DecisionCache shard per region (DESIGN "Decision cache & quantization").

FleetConfig planner_fleet() {
  FleetConfig config = small_fleet();
  config.policy = FleetPolicy::kPlanner;
  return config;
}

TEST(FleetPlannerTest, ValidatesPlannerConfig) {
  {
    FleetConfig config = planner_fleet();
    config.planner_horizon = 0;
    EXPECT_THROW(run_fleet(config), std::invalid_argument);
  }
  {
    FleetConfig config = planner_fleet();
    config.planner_cache.buffer_bucket_s = 0.0;  // invalid quantized width
    EXPECT_THROW(run_fleet(config), std::invalid_argument);
  }
  // The same width is fine under kThroughput: the planner cache is unused.
  {
    FleetConfig config = small_fleet();
    config.planner_cache.buffer_bucket_s = 0.0;
    EXPECT_EQ(run_fleet(config).sessions, config.num_sessions);
  }
}

TEST(FleetPlannerTest, ThroughputPolicyKeepsPlannerCountersZero) {
  const auto metrics = run_fleet(small_fleet());
  EXPECT_EQ(metrics.planner.plans, 0u);
  EXPECT_EQ(metrics.planner.cache_hits, 0u);
  EXPECT_EQ(metrics.planner.cache_misses, 0u);
  EXPECT_EQ(metrics.planner.cache_evictions, 0u);
  EXPECT_EQ(metrics.planner.model_evals(), 0u);
}

TEST(FleetPlannerTest, CounterConservation) {
  const FleetConfig config = planner_fleet();
  const auto metrics = run_fleet(config);
  const auto& planner = metrics.planner;
  // Exactly one startup request per session bypasses the cache; every other
  // request consults it exactly once.
  EXPECT_EQ(planner.cache_hits + planner.cache_misses,
            metrics.requests - metrics.sessions);
  // Every miss is exactly one cold DP solve, and nothing else plans.
  EXPECT_EQ(planner.plans, planner.cache_misses);
  // Each solve builds one cost table per window task (quantized mode always
  // plans the full horizon), each table evaluating the QoE and power models
  // once per rung plus one baseline QoE pass (2M + 1).
  EXPECT_EQ(planner.tables_built, planner.plans * config.planner_horizon);
  const std::uint64_t rungs = config.ladder_mbps.size();
  EXPECT_EQ(planner.model_evals(), planner.tables_built * (2 * rungs + 1));
  // Memoization must actually engage on a population this size.
  EXPECT_GT(planner.cache_hits, 0u);
  // Shard counters merge to the fleet total (serial region-order fold).
  core::CostStats folded;
  for (const auto& region : metrics.regions) folded.merge(region.planner);
  EXPECT_EQ(folded.plans, planner.plans);
  EXPECT_EQ(folded.cache_hits, planner.cache_hits);
  EXPECT_EQ(folded.cache_misses, planner.cache_misses);
  EXPECT_EQ(folded.cache_evictions, planner.cache_evictions);
  EXPECT_EQ(folded.model_evals(), planner.model_evals());
}

TEST(FleetPlannerTest, BitIdenticalAcrossJobCounts) {
  FleetConfig config = planner_fleet();
  config.exec = ExecutionPolicy{1};
  const auto serial = run_fleet(config);
  for (const std::size_t jobs : {2, 8}) {
    config.exec = ExecutionPolicy{jobs};
    const auto parallel = run_fleet(config);
    EXPECT_EQ(parallel.events, serial.events);
    EXPECT_EQ(parallel.requests, serial.requests);
    EXPECT_EQ(parallel.stall_events, serial.stall_events);
    EXPECT_EQ(parallel.planner.plans, serial.planner.plans);
    EXPECT_EQ(parallel.planner.cache_hits, serial.planner.cache_hits);
    EXPECT_EQ(parallel.planner.cache_misses, serial.planner.cache_misses);
    EXPECT_EQ(parallel.planner.cache_evictions,
              serial.planner.cache_evictions);
    EXPECT_EQ(parallel.planner.model_evals(), serial.planner.model_evals());
    // Bit-identical floating-point aggregates, not just "close".
    EXPECT_EQ(parallel.qoe.mean(), serial.qoe.mean());
    EXPECT_EQ(parallel.energy_j.sum(), serial.energy_j.sum());
    EXPECT_EQ(parallel.qoe_quantile(0.5), serial.qoe_quantile(0.5));
    ASSERT_EQ(parallel.regions.size(), serial.regions.size());
    for (std::size_t r = 0; r < serial.regions.size(); ++r) {
      EXPECT_EQ(parallel.regions[r].planner.cache_hits,
                serial.regions[r].planner.cache_hits);
      EXPECT_EQ(parallel.regions[r].median_qoe, serial.regions[r].median_qoe);
    }
  }
}

TEST(FleetPlannerTest, CacheCapacityNeverChangesDecisions) {
  // Canonicalize-then-solve: the cache (at ANY capacity, including the
  // 1-slot thrasher and the never-storing 0) only changes how often the DP
  // runs, never what it returns. Fleet aggregates are bitwise invariant.
  FleetConfig config = planner_fleet();
  config.planner_cache.capacity = 0;
  const auto uncached = run_fleet(config);
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{4096}, FleetConfig{}.planner_cache.capacity}) {
    config.planner_cache.capacity = capacity;
    const auto cached = run_fleet(config);
    EXPECT_EQ(cached.requests, uncached.requests);
    EXPECT_EQ(cached.stall_events, uncached.stall_events);
    EXPECT_EQ(cached.qoe.mean(), uncached.qoe.mean());
    EXPECT_EQ(cached.qoe.variance(), uncached.qoe.variance());
    EXPECT_EQ(cached.energy_j.sum(), uncached.energy_j.sum());
    EXPECT_EQ(cached.bitrate_mbps.mean(), uncached.bitrate_mbps.mean());
    EXPECT_EQ(cached.rebuffer_s.sum(), uncached.rebuffer_s.sum());
    EXPECT_EQ(cached.qoe_quantile(0.9), uncached.qoe_quantile(0.9));
    // The uncached reference solves on every consultation; a real capacity
    // must replace some solves with hits without changing the lookup count.
    EXPECT_EQ(cached.planner.cache_hits + cached.planner.cache_misses,
              uncached.planner.cache_misses);
    EXPECT_GT(cached.planner.cache_hits, 0u);
    EXPECT_LT(cached.planner.plans, uncached.planner.plans);
  }
}

TEST(FleetPlannerTest, PlannerPolicyChangesOutcomes) {
  // Sanity that kPlanner is a different client, not a relabeled kThroughput:
  // the energy-aware objective should spend less energy on this workload.
  const auto throughput = run_fleet(small_fleet());
  const auto planner = run_fleet(planner_fleet());
  EXPECT_EQ(planner.sessions, throughput.sessions);
  EXPECT_NE(planner.energy_j.mean(), throughput.energy_j.mean());
  EXPECT_GT(planner.planner.plans, 0u);
}

}  // namespace
}  // namespace eacs::sim
