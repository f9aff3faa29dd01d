// Partial-synchrony network with a two-region partition, following the
// paper's system model (Section 2):
//
//  * best-effort broadcast between validators;
//  * before GST the two honest regions cannot reach each other, while
//    communication *within* a region keeps the synchronous delay bound;
//  * after GST every message is delivered within the known bound Delta
//    (messages sent before GST arrive by GST + Delta);
//  * Byzantine validators are connected to both regions at all times and
//    may deliberately withhold messages, releasing them later to chosen
//    audiences (the bouncing attack's key capability).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/event_queue.hpp"
#include "src/support/random.hpp"
#include "src/support/types.hpp"

namespace leak::net {

/// Which side of the partition a node lives on.  Byzantine nodes are
/// kBoth: they straddle the partition.
enum class Region : std::uint8_t { kOne = 0, kTwo = 1, kBoth = 2 };

/// Which links a scripted weather episode afflicts.  A link is
/// cross-region when both endpoints sit in distinct fixed regions;
/// links within a region, or touching a straddling (kBoth) node, are
/// intra-region.
enum class LinkClass : std::uint8_t { kAll = 0, kIntra = 1, kCross = 2 };

/// A scripted latency episode: while the send time is in [from, to),
/// per-message jitter on matching links is stretched by `factor`
/// beyond the minimum delay (delays up to min_delay + factor *
/// (delta - min_delay)), deliberately violating the synchrony bound
/// when factor > 1.
struct LatencyEpisode {
  double from = 0.0;  ///< seconds, inclusive
  double to = 0.0;    ///< seconds, exclusive
  LinkClass link = LinkClass::kAll;
  double factor = 1.0;
};

/// A scripted loss episode: messages sent on matching links while the
/// episode is active are dropped with probability `drop`.
struct LossEpisode {
  double from = 0.0;
  double to = 0.0;
  LinkClass link = LinkClass::kAll;
  double drop = 0.0;
};

/// Configuration of the network model.
struct NetworkConfig {
  std::uint32_t num_nodes = 0;
  /// Synchronous-period delay bound Delta, seconds.
  double delta = 1.0;
  /// Minimum propagation delay, seconds.
  double min_delay = 0.05;
  /// Global Stabilization Time (seconds); before it the partition holds.
  SimTime gst = 0.0;
  /// RNG seed for per-message jitter.
  std::uint64_t seed = 42;
  /// Scripted network weather (compiled from a faults::FaultSchedule
  /// by faults::apply_network).  Loss draws come from a dedicated
  /// StreamSeeder lane off `seed`, so an empty episode list is
  /// bit-identical to a network without weather -- the per-message
  /// jitter stream is never perturbed.
  std::vector<LatencyEpisode> latency_episodes;
  std::vector<LossEpisode> loss_episodes;
};

/// The simulated network.  Broadcasts are best-effort, with per-message
/// uniform jitter in [min_delay, delta].  Each recipient copy becomes
/// one of `queue`'s delivery records, so copies reach the queue's
/// Receiver directly.
class Network {
 public:
  Network(EventQueue& queue, NetworkConfig config);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Assign a node to a region (default: everyone in region one).
  void set_region(ValidatorIndex v, Region r);
  [[nodiscard]] Region region(ValidatorIndex v) const;

  /// Whether src can currently reach dst (partition rules + GST).
  [[nodiscard]] bool reachable(ValidatorIndex src, ValidatorIndex dst) const;

  /// Broadcast to every node (including self, like gossip loopback).
  /// Unreachable recipients get the message at GST + jitter instead of
  /// now + jitter — best-effort broadcast across the healed partition.
  void broadcast(ValidatorIndex from, std::uint64_t payload_id);

  /// Byzantine capability: deliver a payload to an explicit audience at an
  /// exact future time (releasing withheld attestations).  Ignores
  /// partition rules: the adversary straddles both regions.
  void release_at(SimTime when, ValidatorIndex from,
                  const std::vector<ValidatorIndex>& audience,
                  std::uint64_t payload_id);

  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  /// Copies the queue has delivered (it counts every delivery).
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return queue_.delivered();
  }
  /// Per-recipient copies dropped by scripted loss episodes.
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

 private:
  [[nodiscard]] double jitter();
  /// Apply the weather episodes to one recipient copy: stretch the
  /// jitter, or drop the copy (returns false).  `base` is now for a
  /// reachable recipient and gst for a pre-GST cross-partition send.
  void send_one(SimTime base, ValidatorIndex from, ValidatorIndex to,
                const Packet& p);
  [[nodiscard]] bool link_is_cross(ValidatorIndex a, ValidatorIndex b) const;
  [[nodiscard]] double latency_factor(SimTime at, bool cross) const;
  [[nodiscard]] bool weather_drops(SimTime at, bool cross);

  EventQueue& queue_;
  NetworkConfig config_;
  std::vector<Region> regions_;
  Rng rng_;
  Rng weather_rng_;  ///< dedicated lane: loss draws never touch rng_
  std::uint64_t dropped_ = 0;
};

}  // namespace leak::net
