#include "eacs/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace eacs::util {
namespace {

// A work item with deliberately non-associative floating-point content: any
// reordering of the reduction would change low-order bits.
double noisy_work(std::size_t i) {
  double x = 1.0 + static_cast<double>(i) * 1e-3;
  for (int k = 0; k < 8; ++k) x = std::sin(x) + std::sqrt(x + 1.0);
  return x;
}

std::uint64_t bits_of(double x) {
  std::uint64_t out = 0;
  std::memcpy(&out, &x, sizeof(out));
  return out;
}

thread_local int caller_marker = 0;

TEST(ParallelMapTest, PreservesIndexOrder) {
  for (const std::size_t jobs : {1U, 2U, 8U}) {
    const auto squares =
        parallel_map(jobs, 100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100U) << "jobs=" << jobs;
    for (std::size_t i = 0; i < squares.size(); ++i) {
      EXPECT_EQ(squares[i], i * i) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelMapTest, SerialWhenJobsIsOne) {
  // jobs<=1 must run inline on the calling thread, in index order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const auto out = parallel_map(1, 8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return i;
  });
  const std::vector<std::size_t> expected = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(out, expected);
}

TEST(ParallelMapTest, SingleItemRunsInline) {
  const auto caller = std::this_thread::get_id();
  const auto out = parallel_map(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0U);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 7;
  });
  EXPECT_EQ(out, std::vector<int>{7});
}

TEST(ParallelMapTest, ZeroItemsIsANoOp) {
  const auto out = parallel_map(4, 0, [](std::size_t) {
    ADD_FAILURE() << "must not be called";
    return 0;
  });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelMapTest, ParallelItemsNeverRunOnTheCallingThread) {
  // Items must not see the caller's thread-local state (an installed
  // core::CostStatsScope, say), so with more than one runner the calling
  // thread only joins and merges.
  const bool serial = effective_workers(4, 64) == 1;
  const auto caller = std::this_thread::get_id();
  caller_marker = 1;
  const auto seen = parallel_map(4, 64, [&](std::size_t) {
    return std::pair{std::this_thread::get_id() == caller, caller_marker};
  });
  caller_marker = 0;
  for (const auto& [on_caller, marker] : seen) {
    EXPECT_EQ(on_caller, serial);
    EXPECT_EQ(marker, serial ? 1 : 0);
  }
}

TEST(ParallelMapTest, WorksWithNonTrivialValueTypes) {
  const auto words = parallel_map(
      4, 10, [](std::size_t i) { return std::string(i, 'x'); });
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(words[i].size(), i);
  }
}

TEST(ParallelMapTest, ExceptionPropagates) {
  for (const std::size_t jobs : {1U, 4U}) {
    EXPECT_THROW(parallel_map(jobs, 16,
                              [](std::size_t i) -> int {
                                if (i == 7) throw std::runtime_error("seven");
                                return 0;
                              }),
                 std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(ParallelMapTest, EveryItemThrowingStillReturns) {
  // Every runner records a failure; exactly one exception comes back and the
  // call returns instead of hanging or terminating.
  for (const std::size_t jobs : {1U, 2U, 8U}) {
    EXPECT_THROW(parallel_map(jobs, 64,
                              [](std::size_t i) -> int {
                                throw std::out_of_range(std::to_string(i));
                              }),
                 std::out_of_range)
        << "jobs=" << jobs;
  }
}

TEST(ParallelMapTest, StopsClaimingAfterTheFirstException) {
  // Index 0 is claimed first and throws. Every other item holds its runner
  // until that throw has happened, then long enough for the failure to be
  // recorded, so each runner sees it before its next claim: at most one item
  // per runner runs, never the rest of the range.
  constexpr std::size_t kItems = 256;
  for (const std::size_t jobs : {1U, 4U}) {
    std::atomic<bool> thrown{false};
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(parallel_map(jobs, kItems,
                              [&](std::size_t i) -> int {
                                ++ran;
                                if (i == 0) {
                                  thrown = true;
                                  throw std::runtime_error("first");
                                }
                                const auto give_up = std::chrono::steady_clock::now() +
                                                     std::chrono::seconds(5);
                                while (!thrown &&
                                       std::chrono::steady_clock::now() < give_up) {
                                  std::this_thread::yield();
                                }
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(50));
                                return 0;
                              }),
                 std::runtime_error)
        << "jobs=" << jobs;
    EXPECT_LE(ran.load(), effective_workers(jobs, kItems)) << "jobs=" << jobs;
  }
}

TEST(ParallelMapTest, EffectiveWorkersClampsSerialAndHardware) {
  EXPECT_EQ(effective_workers(1, 100), 1U);
  EXPECT_EQ(effective_workers(0, 100), 1U);
  EXPECT_EQ(effective_workers(8, 1), 1U);
  EXPECT_EQ(effective_workers(8, 0), 1U);
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_LE(effective_workers(64, 1000), hw);
  EXPECT_LE(effective_workers(8, 4), 4U);
  EXPECT_GE(effective_workers(8, 4), 1U);
}

TEST(ParallelMapTest, BitIdenticalAcrossJobCounts) {
  const auto reference = parallel_map(1, 128, noisy_work);
  for (const std::size_t jobs : {2U, 4U, 8U}) {
    const auto out = parallel_map(jobs, 128, noisy_work);
    ASSERT_EQ(out.size(), reference.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(bits_of(out[i]), bits_of(reference[i]))
          << "jobs=" << jobs << " index " << i;
    }
  }
}

TEST(ParallelMapTest, SleepJitteredItemsStillLandAtTheirIndex) {
  const auto out = parallel_map(8, 48, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds((i * 131) % 400));
    return static_cast<double>(i) * 1.5;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<double>(i) * 1.5);
  }
}

TEST(ParallelMapTest, ExceptionWithArenasStillPropagates) {
  // jobs > 1 and n > 1 take the arena path on any multi-core machine; fn
  // throws mid-stream.
  EXPECT_THROW(parallel_map(8, 64,
                            [](std::size_t i) -> double {
                              if (i == 31) throw std::runtime_error("31");
                              return noisy_work(i);
                            }),
               std::runtime_error);
}

// The ThreadPoolTest and FreeParallelForTest suites keep the names of the
// pool and free parallel_for checks that parallel_map replaced; each now runs
// the same property on parallel_map.

TEST(ThreadPoolTest, MemberParallelForVisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> visits(1000);
  const auto counts = parallel_map(
      4, visits.size(), [&](std::size_t i) { return ++visits[i]; });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    EXPECT_EQ(counts[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  EXPECT_THROW(parallel_map(4, 100,
                            [](std::size_t i) -> int {
                              if (i == 42) throw std::invalid_argument("42");
                              return 0;
                            }),
               std::invalid_argument);
}

TEST(ThreadPoolTest, ArenaMergeIsDeterministicUnderJitteredLatencies) {
  // Sleep-jittered latencies make items land in the arenas in a
  // scheduling-dependent order; the index merge must erase that, bit for bit.
  constexpr std::size_t kItems = 64;
  for (const std::size_t jobs : {2U, 4U, 8U}) {
    for (int round = 0; round < 3; ++round) {
      const auto out = parallel_map(jobs, kItems, [](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds((i * 97) % 500));
        return noisy_work(i);
      });
      ASSERT_EQ(out.size(), kItems);
      for (std::size_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(bits_of(out[i]), bits_of(noisy_work(i)))
            << "jobs=" << jobs << " round " << round << " index " << i;
      }
    }
  }
}

TEST(FreeParallelForTest, CoversAllIndicesAtManyJobCounts) {
  for (const std::size_t jobs : {1U, 2U, 3U, 8U, 16U}) {
    std::vector<std::atomic<int>> visits(257);
    parallel_map(jobs, visits.size(), [&](std::size_t i) { return ++visits[i]; });
    long long total = 0;
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs << " index " << i;
      total += visits[i].load();
    }
    EXPECT_EQ(total, 257) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace eacs::util
