// Full slot-level protocol simulation: proposers, attesters, gossip over
// the partial-synchrony network, per-validator views, LMD-GHOST fork
// choice, FFG justification/finalization, slashing detection and the
// leak trigger.  Used for protocol-level integration tests and the
// short-horizon examples; the multi-thousand-epoch leak dynamics run on
// the epoch-granular partition simulator instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "src/chain/blocktree.hpp"
#include "src/chain/forkchoice.hpp"
#include "src/chain/registry.hpp"
#include "src/finality/ffg.hpp"
#include "src/finality/safety.hpp"
#include "src/net/event_queue.hpp"
#include "src/net/network.hpp"
#include "src/penalties/slashing.hpp"
#include "src/penalties/spec_config.hpp"

namespace leak::sim {

/// Byzantine proposer behaviour.
enum class ProposerStrategy : std::uint8_t {
  /// Byzantine proposers follow the protocol (a single block per slot).
  kHonest,
  /// The balancing attack (Neu/Tas/Tse): a Byzantine proposer
  /// equivocates — one block per fork side, each released only to its
  /// half of the honest validators (split by validator-index parity)
  /// and withheld from the other half until the epoch boundary.
  /// Byzantine attesters vote for their assigned side, keeping the
  /// LMD-GHOST weights of the two siblings balanced, so honest
  /// checkpoint votes split across two targets and justification
  /// starves without any validator equivocating its attestations.
  kBalancing,
};

/// Minimum per-message network delay, seconds: the floor of every
/// delivery's jitter, so `SlotSimConfig::delta` must be at least this.
inline constexpr double kMinDelay = 0.05;

struct SlotSimConfig {
  std::uint32_t n_honest = 32;
  std::uint32_t n_byzantine = 0;
  std::size_t epochs = 8;
  /// Honest fraction assigned to region one.
  double p0 = 1.0;
  /// Epoch at which the partition heals (GST); 0 disables the partition.
  double gst_epoch = 0.0;
  /// Network delay bound within a region / after GST, seconds
  /// (>= kMinDelay).
  double delta = 1.0;
  /// What Byzantine proposers do with their slots.
  ProposerStrategy proposer_strategy = ProposerStrategy::kHonest;
  /// Fork-choice proposer boost: percent of the total active balance
  /// credited to the current slot's timely proposal until the slot
  /// ends (mainnet uses 40).  0 disables the boost entirely: fork
  /// choice then weighs attestations alone.
  unsigned proposer_boost = 0;
  /// Balancing attack: seconds between a Byzantine proposer's slot
  /// start and the release of each equivocation sibling to its own
  /// audience half (the adversary's release timing knob).
  double release_delay = 0.1;
  /// Balancing attack: seconds past the epoch boundary at which the
  /// withheld cross-side copies are released to the opposite half.
  double cross_delay = 0.1;
  std::uint64_t seed = 1;
  penalties::SpecConfig spec = penalties::SpecConfig::paper();
  /// Scripted network weather (latency/loss episodes in simulated
  /// seconds), compiled from a faults::FaultSchedule by
  /// faults::apply_network.  Empty = no weather: only the synchrony
  /// bound's jitter delays a message and none is lost.
  std::vector<net::LatencyEpisode> latency_episodes;
  std::vector<net::LossEpisode> loss_episodes;
};

/// Everything a test wants to inspect after a run.
struct SlotSimResult {
  /// Finalized checkpoint epoch per validator at the end of the run.
  std::vector<std::uint64_t> finalized_epoch;
  /// Justified checkpoint epoch per validator.
  std::vector<std::uint64_t> justified_epoch;
  /// Safety violations detected across views (conflicting finalization).
  std::size_t safety_violations = 0;
  /// Slashing proofs honest validators produced (offender indices).
  std::vector<ValidatorIndex> slashed;
  /// Was the leak trigger observed by validator 0 at any epoch?
  bool leak_observed = false;
  /// Blocks in validator 0's tree at the end.
  std::size_t blocks_seen = 0;
  /// Total network messages delivered.
  std::uint64_t messages_delivered = 0;
  /// Per-recipient copies dropped by scripted loss episodes.
  std::uint64_t messages_dropped = 0;
  /// Equivocating proposals the adversary produced (balancing mode).
  std::size_t equivocating_proposals = 0;
  /// Validator 0's finalized-checkpoint epoch observed at each epoch
  /// boundary (one entry per simulated epoch).
  std::vector<std::uint64_t> finalized_epoch_trajectory;
  /// Longest run of consecutive epoch boundaries without finality
  /// progress for validator 0 — the balanced fork's finality stall
  /// (includes the protocol's ~2-epoch warmup).
  std::size_t finality_stall_epochs = 0;
};

/// The simulator.  Construct, then call run().
class SlotSim {
 public:
  explicit SlotSim(SlotSimConfig cfg);
  ~SlotSim();

  SlotSim(const SlotSim&) = delete;
  SlotSim& operator=(const SlotSim&) = delete;

  SlotSimResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace leak::sim
