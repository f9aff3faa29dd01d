#include "src/finality/safety.hpp"

#include <algorithm>

namespace leak::finality {

SafetyMonitor::SafetyMonitor(const chain::BlockTree& tree) : tree_(tree) {}

std::optional<SafetyViolation> SafetyMonitor::report(const Checkpoint& c) {
  // Each view reports each checkpoint it finalizes, so most reports
  // repeat a block: it only resumes its scan over the blocks reported
  // since it last looked.
  const auto same_block = [&c](const Reported& r) {
    return r.checkpoint.block == c.block;
  };
  auto it = std::find_if(reported_.begin(), reported_.end(), same_block);
  if (it == reported_.end()) {
    it = reported_.insert(it, Reported{c, 0, std::nullopt});
  }
  Reported& r = *it;
  while (!r.conflict && r.checked < reported_.size()) {
    const std::size_t j = r.checked++;
    const Digest& other = reported_[j].checkpoint.block;
    if (other == c.block) continue;
    const bool compatible = tree_.is_ancestor(other, c.block) ||
                            tree_.is_ancestor(c.block, other);
    if (!compatible) r.conflict = j;
  }
  if (!r.conflict) return std::nullopt;
  return SafetyViolation{reported_[*r.conflict].checkpoint, c};
}

}  // namespace leak::finality
