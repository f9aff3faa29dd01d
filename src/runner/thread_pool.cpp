#include "src/runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "src/support/env.hpp"

namespace leak::runner {

unsigned resolve_threads(unsigned requested) {
  // 1024 bounds damage from e.g. a negative CLI thread arg cast to a
  // huge unsigned; any sane request is far below it.
  constexpr unsigned kMaxThreads = 1024;
  if (requested > 0) return std::min(requested, kMaxThreads);
  const std::uint64_t from_env = env::u64_or("LEAK_THREADS", 0);
  if (from_env > 0) {
    return static_cast<unsigned>(
        std::min<std::uint64_t>(from_env, kMaxThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// 64 paths of SoA state (stake, score, ejected, four 64-bit xoshiro
// lanes) is ~3.3 KiB — comfortably L1-resident with room for the
// output row — and big enough to amortise the per-block dispatch.
constexpr std::size_t kDefaultBlock = 64;

std::size_t resolve_block(std::size_t requested) {
  if (requested > 0) return requested;
  const std::uint64_t from_env = env::u64_or("LEAK_BLOCK", 0);
  if (from_env > 0) return static_cast<std::size_t>(from_env);
  return kDefaultBlock;
}

void claim_blocks(unsigned threads, std::size_t n, std::size_t block,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t granule) {
  if (n == 0) return;
  if (block == 0 && threads > 1 && env::u64_or("LEAK_BLOCK", 0) == 0) {
    // About eight blocks per worker balance uneven trials.
    block = std::clamp<std::size_t>(n / (std::size_t{threads} * 8), 1,
                                    kDefaultBlock);
  }
  block = std::clamp<std::size_t>(resolve_block(block), 1, n);
  granule = std::max<std::size_t>(granule, 1);
  block = (block + granule - 1) / granule * granule;
  const std::size_t n_blocks = (n + block - 1) / block;
  const auto workers =
      static_cast<unsigned>(std::clamp<std::size_t>(threads, 1, n_blocks));
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::size_t first_error_begin = std::numeric_limits<std::size_t>::max();
  const auto claim_loop = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t b = cursor.fetch_add(1, std::memory_order_relaxed);
      if (b >= n_blocks) return;
      const std::size_t begin = b * block;
      try {
        body(begin, std::min(begin + block, n));
      } catch (...) {
        std::scoped_lock lk(err_mu);
        if (begin < first_error_begin) {
          first_error_begin = begin;
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  {
    // The calling thread is one of the workers, so one worker starts no
    // thread; the jthreads join on scope exit, also if starting a later
    // one throws.
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(claim_loop);
    claim_loop();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace leak::runner
