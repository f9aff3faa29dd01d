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
  /// One distinct reported block, in report order.  `checked` counts
  /// the entries known not to conflict with it and `conflict` is the
  /// first that does.
  struct Reported {
    Checkpoint checkpoint;
    std::size_t checked = 0;
    std::optional<std::size_t> conflict;
  };

  const chain::BlockTree& tree_;
  std::vector<Reported> reported_;
  /// The leading entries that lie on one chain, so none conflicts with
  /// another, and the deepest of them.  While every entry is on it, a
  /// new block is checked against the tip alone; once a block leaves
  /// it, later entries are checked one by one until their first
  /// conflict.
  std::size_t chain_len_ = 0;
  Digest tip_{};
};

}  // namespace leak::finality
