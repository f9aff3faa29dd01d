#include "src/finality/safety.hpp"

#include <algorithm>

namespace leak::finality {

SafetyMonitor::SafetyMonitor(const chain::BlockTree& tree) : tree_(tree) {}

std::optional<SafetyViolation> SafetyMonitor::report(const Checkpoint& c) {
  // Each view reports each checkpoint it finalizes, so most reports
  // repeat a recent block: look for it newest first.
  std::size_t at = reported_.size();
  for (std::size_t k = reported_.size(); k-- > 0;) {
    if (reported_[k].checkpoint.block == c.block) {
      at = k;
      break;
    }
  }
  if (at == reported_.size()) {
    reported_.push_back(Reported{c, 0, std::nullopt});
    // Every earlier entry is an ancestor of the tip, so a block that
    // is an ancestor or a descendant of the tip conflicts with none.
    if (chain_len_ == at) {
      if (at == 0 || tree_.is_ancestor(tip_, c.block)) {
        tip_ = c.block;
        ++chain_len_;
      } else if (tree_.is_ancestor(c.block, tip_)) {
        ++chain_len_;
      }
    }
  }
  Reported& r = reported_[at];
  if (at < chain_len_) r.checked = std::max(r.checked, chain_len_);
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
