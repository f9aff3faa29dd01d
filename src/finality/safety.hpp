// Safety monitor: detects conflicting finalization across validator (or
// branch) views — the paper's Safety-loss outcome (1).
#pragma once

#include <optional>
#include <vector>

#include "src/chain/blocktree.hpp"
#include "src/finality/ffg.hpp"

namespace leak::finality {

/// A detected safety violation: two finalized checkpoints on divergent
/// branches (neither block is an ancestor of the other).
struct SafetyViolation {
  Checkpoint a{};
  Checkpoint b{};
};

/// Collects finalized checkpoints reported by any view and checks the
/// prefix property (Property 4 of the paper) against the block tree.
class SafetyMonitor {
 public:
  explicit SafetyMonitor(const chain::BlockTree& tree);

  /// Report a finalized checkpoint; returns a violation if this
  /// checkpoint conflicts with any reported one (a repeat report checks
  /// against every other checkpoint reported so far).  The violation's
  /// `a` is the first reported checkpoint that conflicts.
  std::optional<SafetyViolation> report(const Checkpoint& c);

 private:
  /// One distinct reported block.  Each is checked once against every
  /// other, in report order: `checked` counts the entries compared so
  /// far and `conflict` is the first that conflicts.
  struct Reported {
    Checkpoint checkpoint;
    std::size_t checked = 0;
    std::optional<std::size_t> conflict;
  };

  const chain::BlockTree& tree_;
  std::vector<Reported> reported_;
};

}  // namespace leak::finality
