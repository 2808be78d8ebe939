#pragma once
// Deterministic fan-out: parallel_map and the worker clamp it runs under.
//
// parallel_map exists to make embarrassingly parallel sweeps (evaluation
// sessions, fault-study cells, robustness runs, CEM rollouts, fleet
// regions) fast without changing their results. The contract (see
// DESIGN.md, "Parallel execution model"): fn(i) is called exactly once for
// every index i in [0, n); fn must be a pure function of its index that
// writes only state owned by that index; out[i] = fn(i), and the caller
// reduces in index order afterwards. Under that contract the output is
// bit-identical at any worker count. jobs <= 1 runs the plain serial loop
// on the calling thread — no threads, no atomics, exactly the pre-parallel
// code path.

#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace eacs::util {

/// Alignment used to pad shared counters and per-worker result arenas onto
/// their own cache lines. A constant rather than
/// std::hardware_destructive_interference_size, which GCC warns is
/// ABI-unstable across -mtune targets; 64 bytes is correct for every
/// platform this project targets.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Number of concurrent runners parallel_map actually starts for `n` items
/// at a requested `jobs` level: 1 when the request or the work is serial,
/// otherwise min(jobs, n) clamped to the hardware concurrency.
/// Oversubscribing threads beyond the physical cores only adds contention
/// (the sweeps are CPU-bound), and under the DESIGN §6 purity contract the
/// worker count never affects results, so the clamp is output-neutral.
std::size_t effective_workers(std::size_t jobs, std::size_t n) noexcept;

/// Maps fn over [0, n) into a vector ordered by index — the deterministic
/// fan-out primitive: out[i] depends only on i, never on scheduling. The
/// result type must be default-constructible.
///
/// With one effective worker (jobs <= 1, n <= 1 or a one-core machine) the
/// items run in index order on the calling thread. Otherwise the call starts
/// effective_workers(jobs, n) runner threads and the calling thread runs no
/// item, so items never see its thread-local state (an installed
/// core::CostStatsScope, say). Runners claim indices from one shared counter
/// and append (index, result) pairs to private cache-line-padded arenas; the
/// caller joins them and merges the arenas into `out` by index. The merge is
/// deterministic regardless of arena visitation order because indices are
/// unique and out[i] depends only on fn(i) (DESIGN §6).
///
/// After an item throws, no runner claims another index; the first
/// exception caught is rethrown once every runner has joined. If a runner
/// thread fails to start, the runners already started are joined and the
/// std::system_error propagates.
template <typename Fn>
auto parallel_map(std::size_t jobs, std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using Result = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<Result> out(n);
  const std::size_t workers = effective_workers(jobs, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  struct alignas(kCacheLineBytes) Arena {
    std::vector<std::pair<std::size_t, Result>> items;
  };
  // The claim counter and the failure flag live on separate cache lines:
  // `next` takes every runner's fetch_add while `failed` is read-mostly, and
  // sharing a line would make each abort check miss on the claim line.
  struct Dispatch {
    alignas(kCacheLineBytes) std::atomic<std::size_t> next{0};
    alignas(kCacheLineBytes) std::atomic<bool> failed{false};
    std::exception_ptr error;  // written only by the runner that set `failed`
  };
  std::vector<Arena> arenas(workers);
  Dispatch dispatch;
  const auto run = [&](Arena* arena) {
    while (!dispatch.failed.load(std::memory_order_relaxed)) {
      const std::size_t i = dispatch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        arena->items.emplace_back(i, fn(i));
      } catch (...) {
        if (!dispatch.failed.exchange(true, std::memory_order_relaxed)) {
          dispatch.error = std::current_exception();
        }
        return;
      }
    }
  };
  {
    // Destroying the vector joins every runner it holds, on the normal path
    // and when a later thread fails to start.
    std::vector<std::jthread> runners;
    runners.reserve(workers);
    for (Arena& arena : arenas) runners.emplace_back(run, &arena);
  }
  if (dispatch.error) std::rethrow_exception(dispatch.error);
  for (auto& arena : arenas) {
    for (auto& [i, value] : arena.items) out[i] = std::move(value);
  }
  return out;
}

}  // namespace eacs::util
