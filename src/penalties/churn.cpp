#include "src/penalties/churn.hpp"

#include <algorithm>

namespace leak::penalties {

std::uint64_t churn_limit(std::uint64_t active_count,
                          const ChurnConfig& cfg) {
  return std::max(cfg.min_per_epoch_churn_limit,
                  active_count / cfg.churn_limit_quotient);
}

void ExitQueue::request_exit(ValidatorIndex v) {
  if (v.value() >= queued_.size()) queued_.resize(v.value() + 1, 0);
  if (queued_[v.value()] != 0) return;
  queued_[v.value()] = 1;
  queue_.push_back(v);
}

std::vector<ValidatorIndex> ExitQueue::process_epoch(
    chain::ValidatorRegistry& reg, Epoch epoch) {
  std::vector<ValidatorIndex> ejected;
  const std::uint64_t active = [&] {
    std::uint64_t count = 0;
    for (std::uint32_t i = 0; i < reg.size(); ++i) {
      if (reg.is_active(ValidatorIndex{i}, epoch)) ++count;
    }
    return count;
  }();
  const std::uint64_t limit = churn_limit(active, cfg_);
  while (!queue_.empty() && ejected.size() < limit) {
    const ValidatorIndex v = queue_.front();
    queue_.pop_front();
    queued_[v.value()] = 0;
    reg.eject(v, epoch);
    ejected.push_back(v);
  }
  return ejected;
}

}  // namespace leak::penalties
