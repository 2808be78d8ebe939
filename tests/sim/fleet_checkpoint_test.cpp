// Deterministic fleet checkpoint/resume (DESIGN §14).
//
// The headline contract: run_fleet_until(T) + resume_fleet == run_fleet,
// EXPECT_EQ on every aggregate — not approximately, bitwise — for both
// policies, with and without faults, at several cut points including
// degenerate ones (before the first arrival, after the drain). The sidecar
// file round-trips the checkpoint exactly, and the config fingerprint
// refuses to resume under a config that would silently diverge.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_checkpoint.h"

namespace eacs::sim {
namespace {

FleetConfig small_fleet() {
  FleetConfig config;
  config.network.num_cells = 8;
  config.num_sessions = 400;
  config.arrival_rate_per_s = 4.0;
  config.segments_per_session = 12;
  config.regions = 4;
  return config;
}

FleetConfig faulted_fleet() {
  FleetConfig config = small_fleet();
  config.faults.outages.push_back(
      {.t0_s = 10.0, .t1_s = 45.0, .first_cell = 0, .num_cells = 4});
  config.faults.surges.push_back(
      {.t0_s = 5.0, .t1_s = 25.0, .rate_multiplier = 3.0});
  config.faults.seeded.horizon_s = 200.0;
  config.faults.seeded.brownout_prob = 0.4;
  config.faults.seeded.collapse_prob = 0.4;
  return config;
}

// The fleet behind the pinned sidecar: planner policy, an outage over region
// 0's whole block and seeded brownouts/collapses. The 8 s cut catches
// sessions in backoff, a recycled slot and warm cache shards.
FleetConfig pinned_fleet() {
  FleetConfig config = small_fleet();
  config.network.num_cells = 4;
  config.regions = 2;
  config.num_sessions = 40;
  config.segments_per_session = 4;
  config.policy = FleetPolicy::kPlanner;
  config.faults.outages.push_back(
      {.t0_s = 4.0, .t1_s = 30.0, .first_cell = 0, .num_cells = 2});
  config.faults.seeded.horizon_s = 60.0;
  config.faults.seeded.brownout_prob = 0.4;
  config.faults.seeded.collapse_prob = 0.4;
  return config;
}

const std::string kPinnedSidecar =
    EACS_FUZZ_CORPUS_DIR "/fleet_checkpoint/valid_planner_faults.ckpt";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expect_metrics_eq(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.stall_events, b.stall_events);
  EXPECT_EQ(a.peak_live_sessions, b.peak_live_sessions);
  EXPECT_EQ(a.escape_handoffs, b.escape_handoffs);
  EXPECT_EQ(a.backoff_retries, b.backoff_retries);
  EXPECT_EQ(a.abandoned_sessions, b.abandoned_sessions);
  EXPECT_EQ(a.policy_sheds, b.policy_sheds);
  EXPECT_EQ(a.policy_recoveries, b.policy_recoveries);
  EXPECT_EQ(a.shed_decisions, b.shed_decisions);
  EXPECT_EQ(a.degraded_time_s, b.degraded_time_s);
  EXPECT_EQ(a.wasted_energy_j, b.wasted_energy_j);
  EXPECT_EQ(a.planner.plans, b.planner.plans);
  EXPECT_EQ(a.planner.cache_hits, b.planner.cache_hits);
  EXPECT_EQ(a.planner.cache_misses, b.planner.cache_misses);
  EXPECT_EQ(a.planner.cache_evictions, b.planner.cache_evictions);
  EXPECT_EQ(a.planner.model_evals(), b.planner.model_evals());
  EXPECT_EQ(a.qoe.mean(), b.qoe.mean());
  EXPECT_EQ(a.qoe.variance(), b.qoe.variance());
  EXPECT_EQ(a.energy_j.sum(), b.energy_j.sum());
  EXPECT_EQ(a.bitrate_mbps.mean(), b.bitrate_mbps.mean());
  EXPECT_EQ(a.rebuffer_s.sum(), b.rebuffer_s.sum());
  EXPECT_EQ(a.startup_s.mean(), b.startup_s.mean());
  EXPECT_EQ(a.qoe_quantile(0.5), b.qoe_quantile(0.5));
  EXPECT_EQ(a.energy_quantile(0.9), b.energy_quantile(0.9));
  EXPECT_EQ(a.rebuffer_quantile(0.99), b.rebuffer_quantile(0.99));
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    EXPECT_EQ(a.regions[r].events, b.regions[r].events);
    EXPECT_EQ(a.regions[r].sessions, b.regions[r].sessions);
    EXPECT_EQ(a.regions[r].median_qoe, b.regions[r].median_qoe);
    EXPECT_EQ(a.regions[r].median_energy_j, b.regions[r].median_energy_j);
    EXPECT_EQ(a.regions[r].planner.cache_hits, b.regions[r].planner.cache_hits);
    EXPECT_EQ(a.regions[r].wasted_energy_j, b.regions[r].wasted_energy_j);
  }
}

TEST(FleetCheckpointTest, ResumeMatchesUninterruptedRun) {
  for (const FleetPolicy policy :
       {FleetPolicy::kThroughput, FleetPolicy::kPlanner}) {
    for (const bool faulted : {false, true}) {
      FleetConfig config = faulted ? faulted_fleet() : small_fleet();
      config.policy = policy;
      const FleetMetrics reference = run_fleet(config);
      for (const double cut : {0.5, 30.0, 75.0}) {
        const FleetCheckpoint checkpoint = run_fleet_until(config, cut);
        EXPECT_EQ(checkpoint.checkpoint_t_s, cut);
        const FleetMetrics resumed = resume_fleet(config, checkpoint);
        expect_metrics_eq(resumed, reference);
      }
    }
  }
}

TEST(FleetCheckpointTest, ResumeMatchesAtAnyJobCount) {
  // Checkpoint under one job count, resume under others: the §6 contract
  // extends to the cut.
  FleetConfig config = faulted_fleet();
  config.policy = FleetPolicy::kPlanner;
  config.exec = ExecutionPolicy{1};
  const FleetMetrics reference = run_fleet(config);
  const FleetCheckpoint checkpoint = run_fleet_until(config, 40.0);
  for (const std::size_t jobs : {1, 2, 8}) {
    FleetConfig resumed_config = config;
    resumed_config.exec = ExecutionPolicy{jobs};
    const FleetMetrics resumed = resume_fleet(resumed_config, checkpoint);
    expect_metrics_eq(resumed, reference);
  }
}

TEST(FleetCheckpointTest, CutAfterDrainResumesToSameResult) {
  const FleetConfig config = small_fleet();
  const FleetMetrics reference = run_fleet(config);
  // 1e9 s is long past the drain: the checkpoint holds only finished state.
  const FleetCheckpoint checkpoint = run_fleet_until(config, 1e9);
  for (const auto& region : checkpoint.regions) {
    EXPECT_TRUE(region.events.empty());
    EXPECT_EQ(region.live, 0U);
  }
  expect_metrics_eq(resume_fleet(config, checkpoint), reference);
}

TEST(FleetCheckpointTest, EventAtCutTimeBelongsToResumedRun) {
  // Arrivals land at exact multiples of 1/rate = 0.25 s. A cut at exactly
  // 0.25 must leave that arrival in the checkpoint (strict < convention), so
  // the pending event count across regions is num_sessions minus the
  // arrivals strictly before the cut (session 0 at t = 0).
  const FleetConfig config = small_fleet();
  const FleetCheckpoint checkpoint = run_fleet_until(config, 0.25);
  std::size_t pending_arrivals = 0;
  for (const auto& region : checkpoint.regions) {
    for (const auto& event : region.events) {
      if (event.kind == 0) ++pending_arrivals;
      EXPECT_GE(event.t_s, 0.25);
    }
  }
  EXPECT_EQ(pending_arrivals, config.num_sessions - 1);
}

TEST(FleetCheckpointTest, ValidatesCutTime) {
  const FleetConfig config = small_fleet();
  EXPECT_THROW(run_fleet_until(config, 0.0), std::invalid_argument);
  EXPECT_THROW(run_fleet_until(config, -1.0), std::invalid_argument);
  EXPECT_THROW(
      run_fleet_until(config, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      run_fleet_until(config, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(FleetCheckpointTest, FingerprintRejectsForeignConfig) {
  const FleetConfig config = small_fleet();
  const FleetCheckpoint checkpoint = run_fleet_until(config, 30.0);

  // Any result-shaping change must be refused...
  FleetConfig changed = config;
  changed.seed ^= 1;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.planner_alpha = 0.7;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.resilience.max_retries = 3;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.faults.outages.push_back({.t0_s = 1.0, .t1_s = 2.0});
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.ladder_mbps.back() = 5.0;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);

  // ...but exec.jobs is explicitly outside the fingerprint (§6).
  FleetConfig rejobbed = config;
  rejobbed.exec = ExecutionPolicy{8};
  EXPECT_EQ(fleet_config_fingerprint(rejobbed),
            fleet_config_fingerprint(config));
}

TEST(FleetCheckpointTest, SidecarRoundTripsBitExactly) {
  FleetConfig config = faulted_fleet();
  config.policy = FleetPolicy::kPlanner;
  const FleetCheckpoint checkpoint = run_fleet_until(config, 30.0);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fleet_ckpt_test.txt")
          .string();
  save_fleet_checkpoint(checkpoint, path);
  const FleetCheckpoint loaded = load_fleet_checkpoint(path);
  std::remove(path.c_str());

  // Every field of every region: bit-exact doubles via bit_cast, the arena,
  // aggregator internals incl. Rng engines, metrics and the cache shard.
  EXPECT_EQ(loaded, checkpoint);

  // And the loaded checkpoint resumes to the uninterrupted result.
  expect_metrics_eq(resume_fleet(config, loaded), run_fleet(config));
}

TEST(FleetCheckpointTest, PinnedSidecarResumesAndResavesByteForByte) {
  // The sidecar format is frozen at version 1: a file written by an earlier
  // build must load, resume to the uninterrupted result, and re-save to the
  // same bytes; a fresh cut of the same fleet must write those bytes too.
  const FleetConfig config = pinned_fleet();
  const std::string pinned = read_file(kPinnedSidecar);
  ASSERT_FALSE(pinned.empty());
  const FleetCheckpoint loaded = load_fleet_checkpoint(kPinnedSidecar);
  EXPECT_EQ(loaded.checkpoint_t_s, 8.0);
  expect_metrics_eq(resume_fleet(config, loaded), run_fleet(config));

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fleet_ckpt_pinned.txt")
          .string();
  save_fleet_checkpoint(loaded, path);
  EXPECT_EQ(read_file(path), pinned);
  save_fleet_checkpoint(run_fleet_until(config, 8.0), path);
  EXPECT_EQ(read_file(path), pinned);
  std::remove(path.c_str());
}

TEST(FleetCheckpointTest, LoadRejectsMissingTruncatedAndForeignFiles) {
  EXPECT_THROW(load_fleet_checkpoint("/nonexistent/fleet.ckpt"),
               std::runtime_error);

  const auto dir = std::filesystem::path(::testing::TempDir());
  {
    const std::string path = (dir / "fleet_ckpt_bad_magic.txt").string();
    std::ofstream out(path);
    out << "NOT_A_CHECKPOINT 1\n";
    out.close();
    EXPECT_THROW(load_fleet_checkpoint(path), std::runtime_error);
    std::remove(path.c_str());
  }
  {
    // A valid prefix cut mid-stream must throw, not fabricate state.
    const FleetCheckpoint checkpoint =
        run_fleet_until(small_fleet(), 30.0);
    const std::string full = (dir / "fleet_ckpt_full.txt").string();
    save_fleet_checkpoint(checkpoint, full);
    std::ifstream in(full);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    std::remove(full.c_str());
    const std::string truncated = (dir / "fleet_ckpt_trunc.txt").string();
    std::ofstream out(truncated);
    out << contents.substr(0, contents.size() / 2);
    out.close();
    EXPECT_THROW(load_fleet_checkpoint(truncated), std::runtime_error);
    std::remove(truncated.c_str());
  }
}

// Token indices at the head of every sidecar: magic, version, fingerprint,
// cut time, region count, then region 0's index, live count, event count and
// first event (t_s, session, kind, slot).
constexpr std::size_t kRegionCountToken = 4;
constexpr std::size_t kEventCountToken = 7;
constexpr std::size_t kEventSessionToken = 9;
constexpr std::size_t kEventKindToken = 10;
constexpr std::size_t kEventSlotToken = 11;

std::vector<std::string> tokens_of(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

// A scratch file named after the running test: ctest runs tests in
// parallel processes.
std::string test_temp_path() {
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return (std::filesystem::path(::testing::TempDir()) /
          ("fleet_ckpt_" + name + ".txt"))
      .string();
}

// Writes `tokens` as a sidecar and expects load_fleet_checkpoint to reject
// it with a std::runtime_error whose message contains `problem`.
void expect_load_rejects(const std::vector<std::string>& tokens,
                         const std::string& problem) {
  const std::string path = test_temp_path();
  {
    std::ofstream out(path);
    for (const std::string& token : tokens) out << token << '\n';
  }
  try {
    (void)load_fleet_checkpoint(path);
    ADD_FAILURE() << "load_fleet_checkpoint accepted a sidecar with a bad "
                  << problem;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(problem), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(FleetCheckpointTest, LoadRejectsRegionCountBeyondTheFile) {
  std::vector<std::string> tokens = tokens_of(read_file(kPinnedSidecar));
  tokens[kRegionCountToken] = "1000000000000";
  expect_load_rejects(tokens, "exceeds the bytes left");
}

TEST(FleetCheckpointTest, LoadRejectsEventCountBeyondTheFile) {
  std::vector<std::string> tokens = tokens_of(read_file(kPinnedSidecar));
  tokens[kEventCountToken] = "100000000000";
  expect_load_rejects(tokens, "exceeds the bytes left");
}

TEST(FleetCheckpointTest, LoadRejectsEventKindBeyondEightBits) {
  std::vector<std::string> tokens = tokens_of(read_file(kPinnedSidecar));
  tokens[kEventKindToken] = "258";
  expect_load_rejects(tokens, "does not fit its field");
}

TEST(FleetCheckpointTest, LoadRejectsSlotBeyondThirtyTwoBits) {
  std::vector<std::string> tokens = tokens_of(read_file(kPinnedSidecar));
  tokens[kEventSlotToken] = "4294967301";  // 2^32 + 5
  expect_load_rejects(tokens, "does not fit its field");
}

TEST(FleetCheckpointTest, LoadRejectsSessionBeyondInt) {
  std::vector<std::string> tokens = tokens_of(read_file(kPinnedSidecar));
  tokens[kEventSessionToken] = "4294967296";  // 2^32: beyond any int
  expect_load_rejects(tokens, "does not fit its field");
}

TEST(FleetCheckpointTest, LoadRejectsBoolOtherThanZeroOrOne) {
  // Mark the Box-Muller carry so its flag, the next token, can be found.
  FleetCheckpoint checkpoint = load_fleet_checkpoint(kPinnedSidecar);
  const double marker = 0.123456789;
  checkpoint.regions[0].qoe_sample.rng.cached_normal = marker;
  const std::string path = test_temp_path();
  save_fleet_checkpoint(checkpoint, path);
  std::vector<std::string> tokens = tokens_of(read_file(path));
  std::remove(path.c_str());
  const auto it =
      std::find(tokens.begin(), tokens.end(),
                std::to_string(std::bit_cast<std::uint64_t>(marker)));
  ASSERT_NE(it, tokens.end());
  *std::next(it) = "2";  // has_cached_normal
  expect_load_rejects(tokens, "does not fit its field");
}

TEST(FleetCheckpointTest, LoadRejectsTrailingData) {
  std::vector<std::string> tokens = tokens_of(read_file(kPinnedSidecar));
  tokens.push_back("7");
  expect_load_rejects(tokens, "trailing data");
}

// Resumes the pinned fleet from its 8 s cut with `region` changed by
// `mutate`, and expects std::invalid_argument naming `field`. Region 0 owns
// cells [0, 2), dead at the cut, so its sessions wait in backoff on pending
// requests; region 1 owns cells [2, 4), has downloads in flight and a free
// slot. Both hold cache entries.
template <typename Mutate>
void expect_resume_rejects(std::size_t region, Mutate mutate,
                           const std::string& field,
                           const FleetConfig& config = pinned_fleet(),
                           double cut_s = 8.0) {
  FleetCheckpoint checkpoint = run_fleet_until(config, cut_s);
  mutate(checkpoint.regions[region]);
  try {
    (void)resume_fleet(config, checkpoint);
    ADD_FAILURE() << "resume_fleet accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

FleetEventState& first_event(FleetRegionCheckpoint& r, std::uint8_t kind) {
  const auto it = std::find_if(
      r.events.begin(), r.events.end(),
      [kind](const FleetEventState& e) { return e.kind == kind; });
  EXPECT_NE(it, r.events.end()) << "no pending event of kind " << int{kind};
  return it != r.events.end() ? *it : r.events.front();
}

std::uint32_t slots_of(const FleetRegionCheckpoint& r) {
  return static_cast<std::uint32_t>(r.arena.session.size());
}

// The first rung index beyond the pinned fleet's ladder.
std::uint32_t rungs() {
  return static_cast<std::uint32_t>(pinned_fleet().ladder_mbps.size());
}

TEST(FleetCheckpointTest, RestoreRejectsUnknownEventKind) {
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) { r.events[0].kind = 3; },
      "event kind");
}

TEST(FleetCheckpointTest, RestoreRejectsRequestSlotBeyondArena) {
  expect_resume_rejects(
      0, [](FleetRegionCheckpoint& r) { first_event(r, 1).slot = slots_of(r); },
      "event slot");
}

TEST(FleetCheckpointTest, RestoreRejectsCompleteSlotBeyondArena) {
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) { first_event(r, 2).slot = slots_of(r); },
      "event slot");
}

TEST(FleetCheckpointTest, RestoreRejectsFreeSlotBeyondArena) {
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) {
        r.arena.free_slots.push_back(slots_of(r));
      },
      "free_slots");
}

TEST(FleetCheckpointTest, RestoreRejectsCellOutsideRegion) {
  for (const std::size_t cell : {1, 4}) {
    expect_resume_rejects(
        1, [cell](FleetRegionCheckpoint& r) { r.arena.cell[0] = cell; },
        "arena cell");
  }
}

TEST(FleetCheckpointTest, RestoreRejectsLevelBeyondLadder) {
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) { r.arena.level[0] = rungs(); },
      "arena level");
}

TEST(FleetCheckpointTest, RestoreRejectsLastLevelBeyondLadder) {
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) { r.arena.last_level[0] = rungs(); },
      "arena last_level");
}

TEST(FleetCheckpointTest, RestoreRejectsPrevLevelOutsideLadder) {
  for (const int level : {-2, static_cast<int>(rungs())}) {
    expect_resume_rejects(
        1, [level](FleetRegionCheckpoint& r) { r.arena.prev_level[0] = level; },
        "arena prev_level");
  }
}

TEST(FleetCheckpointTest, RestoreRejectsCachedLevelBeyondLadder) {
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) {
        ASSERT_FALSE(r.cache.entries.empty());
        r.cache.entries[0].level = rungs();
      },
      "cache entry level");
}

TEST(FleetCheckpointTest, RestoreRejectsForeignReservoirCapacity) {
  // restore() reserves the capacity, so a huge one must not reach it.
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) { ++r.energy_sample.capacity; },
      "reservoir capacity");
}

TEST(FleetCheckpointTest, RestoreNamesTheRaggedColumn) {
  expect_resume_rejects(
      1, [](FleetRegionCheckpoint& r) { r.arena.qoe_sum.pop_back(); },
      "arena column qoe_sum");
}

// The event ledger (DESIGN §14). A 2000-session default fleet cut at
// t = 100 s has sessions finished, live and not yet arrived in region 0.
// Without the ledger check each of these edits resumes without error and
// finishes 1999 or 2001 sessions.
FleetConfig ledger_fleet() {
  FleetConfig config;
  config.num_sessions = 2000;
  return config;
}

void erase_first(FleetRegionCheckpoint& r, std::uint8_t kind) {
  r.events.erase(r.events.begin() + (&first_event(r, kind) - r.events.data()));
}

void duplicate_first(FleetRegionCheckpoint& r, std::uint8_t kind) {
  const FleetEventState copy = first_event(r, kind);
  r.events.push_back(copy);
}

TEST(FleetCheckpointTest, RestoreRejectsDroppedPendingArrival) {
  expect_resume_rejects(
      0, [](FleetRegionCheckpoint& r) { erase_first(r, 0); },
      "pending arrival count", ledger_fleet(), 100.0);
}

TEST(FleetCheckpointTest, RestoreRejectsDuplicatedPendingArrival) {
  expect_resume_rejects(
      0, [](FleetRegionCheckpoint& r) { duplicate_first(r, 0); },
      "pending arrival listed twice", ledger_fleet(), 100.0);
}

TEST(FleetCheckpointTest, RestoreRejectsDroppedPendingCompletion) {
  expect_resume_rejects(
      0, [](FleetRegionCheckpoint& r) { erase_first(r, 2); },
      "occupied slot without a pending request or completion", ledger_fleet(),
      100.0);
}

TEST(FleetCheckpointTest, RestoreRejectsDuplicatedPendingCompletion) {
  expect_resume_rejects(
      0, [](FleetRegionCheckpoint& r) { duplicate_first(r, 2); },
      "more than one pending request or completion", ledger_fleet(), 100.0);
}

TEST(FleetCheckpointTest, RegionCountMismatchThrows) {
  const FleetConfig config = small_fleet();
  FleetCheckpoint checkpoint = run_fleet_until(config, 30.0);
  checkpoint.regions.pop_back();
  EXPECT_THROW(resume_fleet(config, checkpoint), std::invalid_argument);
}

}  // namespace
}  // namespace eacs::sim
