// The deterministic FaultDriver: replays a validated FaultSchedule
// into the two simulation backends.
//
//  * compile_partition -- the epoch-granular sim::PartitionSimConfig
//    path: partition-open/heal events become explicit per-branch
//    windows (FaultSchedule::staggered_partition with an open stagger
//    of 0 expresses the paper's open-at-epoch-1, staggered-heal arc),
//    outages become honest-cohort
//    inactivity windows.  Latency/loss episodes have no epoch-granular
//    analogue and are rejected.
//
//  * apply_network -- the event-queue net::Network path: latency/loss
//    episodes become scripted weather on the gossip network, with
//    epoch times scaled to simulated seconds.  Partition/outage events
//    are rejected here: the slot-level simulator models the two-region
//    split structurally (p0 / gst_epoch).
//
// Both directions throw std::invalid_argument with a message that
// names the unsupported event, so a schedule aimed at the wrong
// backend fails fast instead of silently dropping events.
#pragma once

#include "src/faults/schedule.hpp"
#include "src/net/network.hpp"
#include "src/sim/partition_sim.hpp"

namespace leak::faults {

/// Compile the partition-open/heal/outage events of `schedule` onto
/// `cfg`: sets cfg->branches, cfg->windows and cfg->outages.  Every
/// other field (n_validators, beta0, strategy, horizon, spec) is left
/// untouched.  Throws on latency/loss events or a schedule with no
/// partition-open.
void compile_partition(const FaultSchedule& schedule,
                       sim::PartitionSimConfig* cfg);

/// Apply the latency/loss episodes of `schedule` onto `cfg`,
/// converting epoch times to simulated seconds (seconds_per_epoch =
/// 32 slots * 12 s for the slot-level simulator).  Throws on
/// partition/outage events.
void apply_network(const FaultSchedule& schedule, double seconds_per_epoch,
                   net::NetworkConfig* cfg);

}  // namespace leak::faults
