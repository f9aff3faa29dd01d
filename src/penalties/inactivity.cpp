#include "src/penalties/inactivity.hpp"

#include <stdexcept>

namespace leak::penalties {

InactivityTracker::InactivityTracker(chain::ValidatorRegistry& registry,
                                     SpecConfig config)
    : registry_(registry),
      config_(config),
      exit_queue_(ChurnConfig{config.min_per_epoch_churn_limit,
                              config.churn_limit_quotient}) {}

EpochPenaltyReport InactivityTracker::process_epoch(
    Epoch current, Epoch last_finalized,
    const std::vector<std::uint8_t>& active) {
  if (active.size() != registry_.size()) {
    throw std::invalid_argument("process_epoch: activity vector size");
  }
  EpochPenaltyReport report;
  report.epoch = current;
  report.leaking = is_leaking(current, last_finalized);

  for (std::uint32_t i = 0; i < registry_.size(); ++i) {
    const ValidatorIndex v{i};
    auto& rec = registry_.at(v);
    if (rec.exited_by(current)) continue;
    const RecordStep step = step_record(rec.balance, rec.inactivity_score,
                                        active[i] != 0, report.leaking,
                                        config_);
    report.total_penalty += step.penalty;
    // Ejection of depleted validators: immediate in the paper's model,
    // queued through the churn limit when enabled.
    if (step.depleted) {
      if (config_.use_churn_limit) {
        exit_queue_.request_exit(v);
      } else {
        registry_.eject(v, current);
        report.ejected.push_back(v);
      }
    }
  }
  if (config_.use_churn_limit) {
    for (const ValidatorIndex v :
         exit_queue_.process_epoch(registry_, current)) {
      report.ejected.push_back(v);
    }
  }
  return report;
}

}  // namespace leak::penalties
