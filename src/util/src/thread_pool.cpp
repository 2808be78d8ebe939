#include "eacs/util/thread_pool.h"

#include <algorithm>
#include <thread>

namespace eacs::util {

std::size_t effective_workers(std::size_t jobs, std::size_t n) noexcept {
  if (jobs <= 1 || n <= 1) return 1;
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min({jobs, n, hw});
}

}  // namespace eacs::util
