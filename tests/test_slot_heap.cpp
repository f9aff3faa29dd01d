// Per-trial heap guard for the slot-level simulator.
//
// Several slot trials run at once, one per worker, and each malloc
// arena keeps the peak of the trials it served, so a trial's peak live
// heap is what the process's resident set scales with.  This suite
// replaces the global operator new/delete (which is why it is its own
// executable), counts the bytes each allocation requests, and bounds
// one trial's peak live heap and allocation count at the two shapes
// the benchmark's slot cells run.  Counting requested bytes keeps the
// figures independent of the allocator.  Sanitizer builds bring their
// own allocator, so there the suite skips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/sim/slot_sim.hpp"
#include "src/support/random.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LEAK_HEAP_GUARD_SKIPPED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LEAK_HEAP_GUARD_SKIPPED 1
#endif
#endif

namespace {

/// What the counting operator new saw while `armed` was set.  The
/// tests are single-threaded, so plain counters suffice.
struct HeapCounters {
  bool armed = false;
  std::size_t live = 0;
  std::size_t peak = 0;
  std::size_t allocations = 0;
};
HeapCounters g_heap;

}  // namespace

#ifndef LEAK_HEAP_GUARD_SKIPPED

namespace {

/// Each block carries its requested size in a header, so delete can
/// give the bytes back whichever delete overload the caller used.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t size) {
  auto* raw = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (raw == nullptr) throw std::bad_alloc();
  *reinterpret_cast<std::size_t*>(raw) = size;
  if (g_heap.armed) {
    ++g_heap.allocations;
    g_heap.live += size;
    if (g_heap.live > g_heap.peak) g_heap.peak = g_heap.live;
  }
  return raw + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  auto* raw = static_cast<unsigned char*>(p) - kHeader;
  const std::size_t size = *reinterpret_cast<std::size_t*>(raw);
  // Blocks allocated before arming are not in `live`; never let the
  // counter wrap when one of them is freed inside the window.
  if (g_heap.armed) g_heap.live -= std::min(size, g_heap.live);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

#endif  // LEAK_HEAP_GUARD_SKIPPED

namespace leak::sim {
namespace {

struct TrialHeap {
  std::size_t peak_bytes = 0;
  std::size_t allocations = 0;
};

/// Construct and run one SlotSim with the counters armed.
TrialHeap measure(SlotSimConfig cfg) {
  g_heap = HeapCounters{};
  g_heap.armed = true;
  {
    SlotSim sim(std::move(cfg));
    const SlotSimResult r = sim.run();
    EXPECT_FALSE(r.finalized_epoch.empty());
  }
  g_heap.armed = false;
  std::printf("peak live heap %zu B over %zu allocations\n", g_heap.peak,
              g_heap.allocations);
  return TrialHeap{g_heap.peak, g_heap.allocations};
}

constexpr std::size_t kMiB = std::size_t{1} << 20;

#ifdef LEAK_HEAP_GUARD_SKIPPED
#define SKIP_UNDER_SANITIZERS() \
  GTEST_SKIP() << "sanitizer builds replace the allocator"
#else
#define SKIP_UNDER_SANITIZERS() (void)0
#endif

// The `balancing-attack` cell: 32 honest, 12 Byzantine equivocating
// proposers, 40% proposer boost, 3 epochs.
TEST(SlotTrialHeap, BalancingTrialStaysSmall) {
  SKIP_UNDER_SANITIZERS();
  SlotSimConfig cfg;
  cfg.n_honest = 32;
  cfg.n_byzantine = 12;
  cfg.proposer_boost = 40;
  cfg.epochs = 3;
  cfg.proposer_strategy = ProposerStrategy::kBalancing;
  cfg.seed = StreamSeeder(42).seed_for(0);
  const TrialHeap h = measure(cfg);
  EXPECT_LE(h.peak_bytes, 1 * kMiB);
  EXPECT_LE(h.allocations, 8700u);
}

// The partitioned `slot-protocol` cell: 8 Byzantine validators hiding
// equivocations across a 50/50 partition that heals at epoch 4.
TEST(SlotTrialHeap, PartitionedTrialStaysSmall) {
  SKIP_UNDER_SANITIZERS();
  SlotSimConfig cfg;
  cfg.n_byzantine = 8;
  cfg.p0 = 0.5;
  cfg.gst_epoch = 4;
  cfg.epochs = 8;
  cfg.seed = StreamSeeder(1).seed_for(0);
  const TrialHeap h = measure(cfg);
  EXPECT_LE(h.peak_bytes, 2 * kMiB);
  EXPECT_LE(h.allocations, 20600u);
}

}  // namespace
}  // namespace leak::sim
