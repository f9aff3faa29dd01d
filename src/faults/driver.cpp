#include "src/faults/driver.hpp"

#include <stdexcept>
#include <variant>

namespace leak::faults {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("fault driver: " + msg);
}

net::LinkClass to_net(LinkClass link) {
  switch (link) {
    case LinkClass::kIntra: return net::LinkClass::kIntra;
    case LinkClass::kCross: return net::LinkClass::kCross;
    case LinkClass::kAll: break;
  }
  return net::LinkClass::kAll;
}

}  // namespace

void compile_partition(const FaultSchedule& schedule,
                       sim::PartitionSimConfig* cfg) {
  schedule.validate();
  const std::uint32_t top = schedule.max_branch();
  if (top == 0) {
    fail("compile_partition: schedule has no partition-open events; "
         "nothing splits, so there is no partition scenario to run");
  }

  std::vector<sim::BranchWindow> windows(top);
  std::vector<sim::OutageWindow> outages;
  for (const FaultEvent& event : schedule.events) {
    if (const auto* open = std::get_if<PartitionOpen>(&event)) {
      windows[open->branch - 1].open_epoch = open->epoch;
    } else if (const auto* heal = std::get_if<PartitionHeal>(&event)) {
      windows[heal->branch - 1].heal_epoch = heal->epoch;
    } else if (const auto* outage = std::get_if<ValidatorOutage>(&event)) {
      outages.push_back({outage->from_epoch, outage->span_epochs,
                         outage->cohort});
    } else {
      fail("compile_partition: " + std::string(
               std::holds_alternative<LatencyEpisode>(event) ? "latency"
                                                             : "loss") +
           " episodes have no epoch-granular analogue; route them through "
           "the slot-level network path (apply_network / flaky-network)");
    }
  }

  cfg->branches = top + 1;
  cfg->windows = std::move(windows);
  cfg->outages = std::move(outages);
}

void apply_network(const FaultSchedule& schedule, double seconds_per_epoch,
                   net::NetworkConfig* cfg) {
  schedule.validate();
  if (seconds_per_epoch <= 0.0) {
    fail("apply_network: seconds_per_epoch must be > 0");
  }
  std::vector<net::LatencyEpisode> latency;
  std::vector<net::LossEpisode> loss;
  for (const FaultEvent& event : schedule.events) {
    if (const auto* e = std::get_if<LatencyEpisode>(&event)) {
      latency.push_back({e->from_epoch * seconds_per_epoch,
                         (e->from_epoch + e->span_epochs) * seconds_per_epoch,
                         to_net(e->link), e->factor});
    } else if (const auto* e = std::get_if<LossEpisode>(&event)) {
      loss.push_back({e->from_epoch * seconds_per_epoch,
                      (e->from_epoch + e->span_epochs) * seconds_per_epoch,
                      to_net(e->link), e->drop});
    } else {
      fail("apply_network: partition/outage events apply to the "
           "epoch-granular partition path (compile_partition); the "
           "slot-level network models the two-region split via the "
           "p0/gst_epoch knobs");
    }
  }
  cfg->latency_episodes = std::move(latency);
  cfg->loss_episodes = std::move(loss);
}

}  // namespace leak::faults
