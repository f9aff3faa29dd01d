// The runner's one fan-out: fixed-size blocks claimed in ascending
// order by the calling thread and by workers it starts for the call
// and joins before it returns.
// Deliberately work-stealing-free: one atomic cursor is ample for the
// coarse blocks the simulators hand out (each block is thousands of
// epochs of protocol dynamics) and keeps the scheduling trivially easy
// to reason about.
#pragma once

#include <cstddef>
#include <functional>

namespace leak::runner {

/// Resolve a `threads` knob to a worker count: an explicit positive
/// request wins; 0 means the LEAK_THREADS environment variable when
/// set, otherwise std::thread::hardware_concurrency (at least 1).
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Resolve a `block` knob (trials per scheduled block) the same way:
/// an explicit positive request wins; 0 means the LEAK_BLOCK
/// environment variable when set, otherwise 64, the width at which the
/// batched Monte Carlo kernel's structure-of-arrays state stays inside
/// L1 (see src/kernel/stake_batch.hpp).
[[nodiscard]] std::size_t resolve_block(std::size_t requested);

/// Carve [0, n) into fixed-size blocks (block b covers
/// [b*block, min((b+1)*block, n)), block clamped to [1, n] and then
/// rounded up to whole granules, so every begin is a multiple of
/// `granule` — boundaries depend only on (n, block, granule, threads),
/// never on scheduling) and run body(begin, end) for each.  Block 0 is
/// the auto size, in trials like an explicit one: LEAK_BLOCK when set,
/// else 64 on one worker and clamp(n / (threads * 8), 1, 64) on
/// several, so even a cell of a few trials reaches every worker.
/// min(threads, blocks) workers, the calling thread being one of them,
/// claim the blocks from one cursor in ascending order, so claim order
/// is deterministic even though completion order is not.  A throwing
/// block cancels the blocks not yet claimed, and once every claimed
/// block has finished, the exception of the lowest failing block is
/// rethrown.
void claim_blocks(unsigned threads, std::size_t n, std::size_t block,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t granule = 1);

}  // namespace leak::runner
