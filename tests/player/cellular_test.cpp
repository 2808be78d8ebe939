// Cellular link model: multi-cell stepping, handoffs, and the edge cases the
// event-heap path must survive (mid-download crossings, zero-capacity cells,
// simultaneous handoffs on one step edge, dormant-cell wake). Bit-identity of
// the single-cell configuration lives in tests/differential/.
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/abr/fixed.h"
#include "eacs/player/session_engine.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;

trace::TimeSeries constant_capacity(double mbps, double duration = 2000.0) {
  trace::TimeSeries series;
  series.append(0.0, mbps);
  series.append(duration, mbps);
  return series;
}

SessionEngineConfig quick_config(double max_session_s = 600.0) {
  SessionEngineConfig config;
  config.max_session_s = max_session_s;
  return config;
}

TEST(CellularLinkModelTest, ValidatesCells) {
  EXPECT_THROW(CellularLinkModel(std::span<const trace::TimeSeries* const>{}),
               std::invalid_argument);
  const trace::TimeSeries empty;
  const trace::TimeSeries* cells[] = {&empty};
  EXPECT_THROW(CellularLinkModel{cells}, std::invalid_argument);
  const trace::TimeSeries* null_cells[] = {nullptr};
  EXPECT_THROW(CellularLinkModel{null_cells}, std::invalid_argument);
}

TEST(CellularLinkModelTest, RouteAndHomeCellValidated) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  abr::FixedBitrate fixed(5, "Fixed");
  const auto cap_a = constant_capacity(10.0);
  const auto cap_b = constant_capacity(10.0);
  const trace::TimeSeries* cells[] = {&cap_a, &cap_b};
  const CellularLinkModel link(cells);
  const SessionEngine engine(quick_config());

  SessionClient client{&manifest, &fixed, &session, 0.0};
  client.home_cell = 2;  // out of range
  EXPECT_THROW(engine.run({&client, 1}, link), std::invalid_argument);

  client.home_cell = 0;
  const std::vector<CellHop> bad_cell = {{5.0, 7}};
  client.route = bad_cell;
  EXPECT_THROW(engine.run({&client, 1}, link), std::invalid_argument);

  const std::vector<CellHop> unsorted = {{9.0, 1}, {5.0, 0}};
  client.route = unsorted;
  EXPECT_THROW(engine.run({&client, 1}, link), std::invalid_argument);
}

TEST(CellularTest, SingleCellMatchesSharedLink) {
  const auto manifest = make_manifest(40.0, 2.0);
  const auto session = make_session(40.0, 16.0);
  const auto capacity = constant_capacity(16.0);
  const SessionEngine engine(quick_config());

  for (const std::size_t n : {1U, 2U, 4U}) {
    std::vector<abr::FixedBitrate> shared_policies;
    std::vector<abr::FixedBitrate> cell_policies;
    shared_policies.reserve(n);
    cell_policies.reserve(n);
    std::vector<SessionClient> shared_clients;
    std::vector<SessionClient> cell_clients;
    for (std::size_t c = 0; c < n; ++c) {
      shared_policies.emplace_back(6, "F");
      cell_policies.emplace_back(6, "F");
    }
    for (std::size_t c = 0; c < n; ++c) {
      shared_clients.push_back({&manifest, &shared_policies[c], &session,
                                static_cast<double>(c)});
      cell_clients.push_back({&manifest, &cell_policies[c], &session,
                              static_cast<double>(c)});
    }
    const CellularLinkModel shared(capacity);
    const trace::TimeSeries* cells[] = {&capacity};
    const CellularLinkModel cellular(cells);

    const auto a = engine.run(shared_clients, shared);
    const auto b = engine.run(cell_clients, cellular);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < n; ++c) {
      ASSERT_EQ(a[c].tasks.size(), b[c].tasks.size());
      EXPECT_EQ(a[c].session_end_s, b[c].session_end_s);
      EXPECT_EQ(a[c].total_rebuffer_s, b[c].total_rebuffer_s);
      EXPECT_EQ(a[c].startup_delay_s, b[c].startup_delay_s);
      EXPECT_EQ(a[c].cell_handoffs, 0U);
      EXPECT_EQ(b[c].cell_handoffs, 0U);
      for (std::size_t t = 0; t < a[c].tasks.size(); ++t) {
        EXPECT_EQ(a[c].tasks[t].download_end_s, b[c].tasks[t].download_end_s);
        EXPECT_EQ(a[c].tasks[t].throughput_mbps, b[c].tasks[t].throughput_mbps);
      }
    }
  }
}

TEST(CellularTest, MidDownloadHandoffCarriesRemainingBytes) {
  const auto manifest = make_manifest(40.0, 2.0);
  const auto session = make_session(40.0, 8.0);
  // 5.8 Mbps rungs over a 1 Mbps cell: the first download alone takes ~11.6 s
  // of wall time, so the t = 5 hop is guaranteed to land mid-transfer.
  abr::FixedBitrate fixed(13, "Big");
  const auto cap_a = constant_capacity(1.0);
  const auto cap_b = constant_capacity(30.0);
  const trace::TimeSeries* cells[] = {&cap_a, &cap_b};
  const CellularLinkModel link(cells);
  const SessionEngine engine(quick_config());

  SessionClient client{&manifest, &fixed, &session, 0.0};
  const std::vector<CellHop> route = {{5.0, 1}};
  client.route = route;

  SessionTimeline timeline;
  const auto results = engine.run({&client, 1}, link, &timeline);
  ASSERT_EQ(results.size(), 1U);
  EXPECT_EQ(results[0].cell_handoffs, 1U);
  EXPECT_EQ(timeline.count(SessionEventType::kCellHandoff), 1U);

  // The handoff event carries (new cell, old cell) and an in-flight segment.
  bool saw_handoff = false;
  for (const auto& event : timeline.events()) {
    if (event.type != SessionEventType::kCellHandoff) continue;
    saw_handoff = true;
    EXPECT_EQ(event.source, 1U);
    EXPECT_EQ(event.value, 0.0);
    EXPECT_EQ(event.segment, 0U);  // the first download is still in flight
    EXPECT_GE(event.t_s, 5.0);
  }
  EXPECT_TRUE(saw_handoff);

  // The first download spans the hop instant: started before, finished after
  // — its remaining megabits crossed cells instead of restarting.
  ASSERT_EQ(results[0].tasks.size(), manifest.num_segments());
  EXPECT_EQ(results[0].tasks.front().download_start_s, 0.0);
  EXPECT_GT(results[0].tasks.front().download_end_s, 5.0);
  // The fast cell finished it long before the slow cell could have (~11.6 s).
  EXPECT_LT(results[0].tasks.front().download_end_s, 7.0);
}

TEST(CellularTest, ZeroCapacityCellAttachTerminates) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  abr::FixedBitrate fixed(5, "Fixed");
  const auto cap_a = constant_capacity(10.0);
  const auto cap_dead = constant_capacity(0.0);
  const trace::TimeSeries* cells[] = {&cap_a, &cap_dead};
  const CellularLinkModel link(cells);
  const SessionEngine engine(quick_config(30.0));  // short hard stop

  SessionClient client{&manifest, &fixed, &session, 0.0};
  client.home_cell = 1;  // attaches to the dead cell, no route out
  const auto results = engine.run({&client, 1}, link);
  ASSERT_EQ(results.size(), 1U);
  // Nothing ever downloads; the run hits the hard stop instead of hanging.
  EXPECT_TRUE(results[0].tasks.empty());
  EXPECT_GE(results[0].session_end_s, 30.0);
  EXPECT_GE(results[0].startup_delay_s, 30.0);
}

TEST(CellularTest, HandoffOutOfDeadCellResumesDownload) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  abr::FixedBitrate fixed(5, "Fixed");
  const auto cap_dead = constant_capacity(0.0);
  const auto cap_b = constant_capacity(12.0);
  const trace::TimeSeries* cells[] = {&cap_dead, &cap_b};
  const CellularLinkModel link(cells);
  const SessionEngine engine(quick_config());

  SessionClient client{&manifest, &fixed, &session, 0.0};
  const std::vector<CellHop> route = {{5.0, 1}};
  client.route = route;  // starts in the dead cell, escapes at t = 5
  const auto results = engine.run({&client, 1}, link);
  ASSERT_EQ(results.size(), 1U);
  EXPECT_EQ(results[0].cell_handoffs, 1U);
  EXPECT_EQ(results[0].tasks.size(), manifest.num_segments());
  // The first request was issued at t = 0 into the dead cell and only
  // completed after the escape.
  EXPECT_EQ(results[0].tasks.front().download_start_s, 0.0);
  EXPECT_GT(results[0].tasks.front().download_end_s, 5.0);
}

TEST(CellularTest, SimultaneousHandoffsOnOneStepEdge) {
  const auto manifest = make_manifest(30.0, 2.0);
  const auto session = make_session(30.0, 10.0);
  // 5.8 Mbps rungs over 2 Mbps cells: ~5.8 s per download, so both clients
  // are deep in their transfers when the swap hits at t = 8.
  abr::FixedBitrate policy_a(13, "A");
  abr::FixedBitrate policy_b(13, "B");
  const auto cap_a = constant_capacity(2.0);
  const auto cap_b = constant_capacity(2.0);
  const trace::TimeSeries* cells[] = {&cap_a, &cap_b};
  const CellularLinkModel link(cells);
  const SessionEngine engine(quick_config());

  // Both clients swap cells at the same instant (a duplicate-timestamp step
  // edge): client 0 goes 0 -> 1, client 1 goes 1 -> 0.
  SessionClient a{&manifest, &policy_a, &session, 0.0};
  SessionClient b{&manifest, &policy_b, &session, 0.0};
  b.home_cell = 1;
  const std::vector<CellHop> route_a = {{8.0, 1}};
  const std::vector<CellHop> route_b = {{8.0, 0}};
  a.route = route_a;
  b.route = route_b;
  const std::vector<SessionClient> clients = {a, b};

  SessionTimeline timeline;
  const auto results = engine.run(clients, link, &timeline);
  ASSERT_EQ(results.size(), 2U);
  EXPECT_EQ(results[0].cell_handoffs, 1U);
  EXPECT_EQ(results[1].cell_handoffs, 1U);
  EXPECT_EQ(timeline.count(SessionEventType::kCellHandoff), 2U);
  // Both complete; symmetric setup gives symmetric outcomes.
  EXPECT_EQ(results[0].tasks.size(), manifest.num_segments());
  EXPECT_EQ(results[1].tasks.size(), manifest.num_segments());
  EXPECT_EQ(results[0].session_end_s, results[1].session_end_s);
  // Handoffs land in client index order on the same edge.
  std::vector<std::size_t> handoff_clients;
  for (const auto& event : timeline.events()) {
    if (event.type == SessionEventType::kCellHandoff) {
      handoff_clients.push_back(event.client);
    }
  }
  ASSERT_EQ(handoff_clients.size(), 2U);
  EXPECT_EQ(handoff_clients[0], 0U);
  EXPECT_EQ(handoff_clients[1], 1U);
}

TEST(CellularTest, SelfHopIsNoOp) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  abr::FixedBitrate with_hop(5, "A");
  abr::FixedBitrate without_hop(5, "B");
  const auto cap_a = constant_capacity(10.0);
  const auto cap_b = constant_capacity(10.0);
  const trace::TimeSeries* cells[] = {&cap_a, &cap_b};
  const CellularLinkModel link(cells);
  const SessionEngine engine(quick_config());

  SessionClient hopper{&manifest, &with_hop, &session, 0.0};
  const std::vector<CellHop> route = {{6.0, 0}};  // hop to the current cell
  hopper.route = route;
  SessionClient stayer{&manifest, &without_hop, &session, 0.0};

  const auto a = engine.run({&hopper, 1}, link);
  const auto b = engine.run({&stayer, 1}, link);
  EXPECT_EQ(a[0].cell_handoffs, 0U);
  ASSERT_EQ(a[0].tasks.size(), b[0].tasks.size());
  EXPECT_EQ(a[0].session_end_s, b[0].session_end_s);
  for (std::size_t t = 0; t < a[0].tasks.size(); ++t) {
    EXPECT_EQ(a[0].tasks[t].download_end_s, b[0].tasks[t].download_end_s);
  }
}

TEST(CellularTest, HandoffIntoDormantCellWakesIt) {
  // Client 1 finishes quickly in cell 1 (fat pipe, short video), parking the
  // cell; client 0 then hops in from cell 0 and must still be served.
  const auto long_manifest = make_manifest(40.0, 2.0);
  const auto short_manifest = make_manifest(8.0, 2.0);
  const auto session = make_session(40.0, 10.0);
  // Mover: 3.6 Mbps rungs over a 6 Mbps cell = ~1.2 s per download, so its
  // 20 segments keep it busy past the t = 20 hop.
  abr::FixedBitrate policy_a(11, "A");
  abr::FixedBitrate policy_b(3, "B");
  const auto cap_a = constant_capacity(6.0);
  const auto cap_b = constant_capacity(30.0);
  const trace::TimeSeries* cells[] = {&cap_a, &cap_b};
  const CellularLinkModel link(cells);
  const SessionEngine engine(quick_config());

  SessionClient mover{&long_manifest, &policy_a, &session, 0.0};
  const std::vector<CellHop> route = {{20.0, 1}};
  mover.route = route;
  SessionClient resident{&short_manifest, &policy_b, &session, 0.0};
  resident.home_cell = 1;
  const std::vector<SessionClient> clients = {mover, resident};

  const auto results = engine.run(clients, link);
  ASSERT_EQ(results.size(), 2U);
  EXPECT_EQ(results[1].tasks.size(), short_manifest.num_segments());
  // The resident finished long before t = 20 on a 30 Mbps cell; the mover
  // still gets every segment after waking the parked cell.
  EXPECT_LT(results[1].tasks.back().download_end_s, 20.0);
  EXPECT_EQ(results[0].cell_handoffs, 1U);
  EXPECT_EQ(results[0].tasks.size(), long_manifest.num_segments());
}

TEST(CellularTest, TwoCellsOutperformOneUnderLoad) {
  // Four clients on one 8 Mbps bottleneck vs. the same clients split across
  // two 8 Mbps cells: the split fleet must finish no later in aggregate.
  const auto manifest = make_manifest(30.0, 2.0);
  const auto session = make_session(30.0, 8.0);
  const auto capacity = constant_capacity(8.0);
  const SessionEngine engine(quick_config());

  std::vector<abr::FixedBitrate> one_cell;
  std::vector<abr::FixedBitrate> two_cell;
  one_cell.reserve(4);
  two_cell.reserve(4);
  for (std::size_t c = 0; c < 4; ++c) {
    one_cell.emplace_back(5, "F");
    two_cell.emplace_back(5, "F");
  }
  std::vector<SessionClient> crowded;
  std::vector<SessionClient> split;
  for (std::size_t c = 0; c < 4; ++c) {
    crowded.push_back({&manifest, &one_cell[c], &session, 0.0});
    SessionClient client{&manifest, &two_cell[c], &session, 0.0};
    client.home_cell = c % 2;
    split.push_back(client);
  }
  const trace::TimeSeries* one[] = {&capacity};
  const trace::TimeSeries* two[] = {&capacity, &capacity};
  const auto a = engine.run(crowded, CellularLinkModel(one));
  const auto b = engine.run(split, CellularLinkModel(two));
  double crowded_end = 0.0;
  double split_end = 0.0;
  for (std::size_t c = 0; c < 4; ++c) {
    crowded_end = std::max(crowded_end, a[c].tasks.back().download_end_s);
    split_end = std::max(split_end, b[c].tasks.back().download_end_s);
  }
  EXPECT_LE(split_end, crowded_end);
  EXPECT_GT(crowded_end, split_end * 1.5);  // the split is a real speedup
}

}  // namespace
}  // namespace eacs::player
