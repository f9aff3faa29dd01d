// Typed, JSON-round-trippable fault-injection schedule: an ordered
// timeline of scripted "network weather" events (cascading partition
// opens/heals, latency spikes, lossy links, validator outages) that a
// FaultDriver (driver.hpp) replays into the epoch-granular partition
// simulator or the event-queue slot-level network.
//
// The schedule is the contract every robustness scenario shares:
//   - strict validation (monotone event times, per-branch heal-overlap
//     rules, contiguous branch ids, bounded probabilities) so a broken
//     schedule fails fast with an actionable message instead of
//     silently mis-simulating;
//   - strict JSON round-trip via src/support/json (unknown keys and
//     unknown event kinds are rejected, documents serialize
//     deterministically) so schedules are durable artifacts: sweep
//     cells carry them as a `faults` param and leakctl --faults loads
//     them from disk;
//   - the paper's fixed partition-then-heal arc is one schedule
//     (staggered_partition with an open stagger of 0), so every heal
//     goes through the same compiled window path.
//
// Times are epochs throughout (the partition simulator's native unit);
// the network driver scales them to seconds.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/support/json.hpp"

namespace leak::faults {

/// Which links a weather episode afflicts (mapped onto
/// net::LinkClass by the driver).
enum class LinkClass : std::uint8_t { kAll = 0, kIntra = 1, kCross = 2 };

/// Branch `branch` (>= 1) splits off the canonical branch 0 at the
/// start of `epoch`, forking the canonical registry state.  A k-way
/// simultaneous split is k-1 opens at the same epoch.
struct PartitionOpen {
  std::size_t epoch = 1;
  std::uint32_t branch = 1;
};

/// Branch `branch` merges back at the start of `epoch`; its honest
/// class attests on the target branch from then on.  Only merges into
/// the canonical branch 0 are supported (`into` exists so schedules
/// stay forward-compatible with branch-to-branch merges).
struct PartitionHeal {
  std::size_t epoch = 0;
  std::uint32_t branch = 1;
  std::uint32_t into = 0;
};

/// While active (send time in [from_epoch, from_epoch + span_epochs)),
/// per-message network jitter on matching links is stretched by
/// `factor` beyond the minimum delay -- factor > 1 deliberately
/// violates the synchrony bound Delta.
struct LatencyEpisode {
  double from_epoch = 0.0;
  double span_epochs = 0.0;
  LinkClass link = LinkClass::kAll;
  double factor = 1.0;
};

/// While active, messages sent on matching links are dropped with
/// probability `drop` (drawn from a dedicated weather RNG stream).
struct LossEpisode {
  double from_epoch = 0.0;
  double span_epochs = 0.0;
  LinkClass link = LinkClass::kAll;
  double drop = 0.0;
};

/// The first round(cohort * n_honest) honest validators go inactive on
/// every branch during [from_epoch, from_epoch + span_epochs).
struct ValidatorOutage {
  std::size_t from_epoch = 0;
  std::size_t span_epochs = 0;
  double cohort = 0.0;
};

using FaultEvent = std::variant<PartitionOpen, PartitionHeal, LatencyEpisode,
                                LossEpisode, ValidatorOutage>;

/// Epoch at which an event starts (the ordering key).
[[nodiscard]] double event_start(const FaultEvent& e);

/// An ordered fault timeline.  Construct directly or parse from JSON;
/// `validate()` enforces the invariants either way.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  /// Enforce the schedule invariants; throws std::invalid_argument
  /// with an actionable message on the first violation:
  ///  - events ordered by non-decreasing start epoch;
  ///  - partition branch ids contiguous from 1, one open per branch,
  ///    at most one heal per branch (overlapping heals rejected),
  ///    heals strictly after their open, merges into branch 0 only;
  ///  - episode spans positive, latency factors > 0, drop
  ///    probabilities in [0, 1], outage cohorts in (0, 1];
  ///  - same-kind weather episodes whose link classes can afflict the
  ///    same link must not overlap in time.
  void validate() const;

  /// Highest partition branch id opened (0 = no partition events).
  [[nodiscard]] std::uint32_t max_branch() const;

  /// JSON document: {"version": 1, "events": [...]}.
  [[nodiscard]] json::Value to_json() const;
  /// Compact single-line serialization (the `faults` param payload).
  [[nodiscard]] std::string dump() const;

  /// Strict parse + validate through json::Fields.  Unknown top-level
  /// keys, unknown event kinds, unknown per-event keys, missing keys
  /// and wrong types all throw std::invalid_argument whose message
  /// starts with the offending path ("schedule.events[3].epoch: ...").
  [[nodiscard]] static FaultSchedule from_json(const json::Value& doc);
  /// Parse a schedule document from text (parse errors carry the byte
  /// offset) and validate it.
  [[nodiscard]] static FaultSchedule from_string(const std::string& text);
  /// Load + parse + validate a schedule file; errors are prefixed
  /// with the path (torn/truncated files fail the strict parse).
  [[nodiscard]] static FaultSchedule load_file(const std::string& path);

  /// The staggered-partition family as a schedule: branch b
  /// (1 <= b < branches) opens at 1 + (b-1) * open_stagger and, when
  /// heal_epoch > 0, heals at heal_epoch + (b-1) * heal_stagger.  An
  /// open stagger of 0 is the paper's partition-then-heal arc.
  [[nodiscard]] static FaultSchedule staggered_partition(
      std::uint32_t branches, std::size_t open_stagger,
      std::size_t heal_epoch, std::size_t heal_stagger);
};

}  // namespace leak::faults
