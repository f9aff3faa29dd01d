// Discrete-event simulation core: a time-ordered queue of events.
// Deterministic: ties in time are broken by insertion order.
//
// Two kinds of event share one (time, seq) order.  A generic event runs
// a callable.  A delivery is a typed (recipient, packet) record, popped
// into the one registered Receiver by a single virtual call; scheduling
// it neither builds nor destroys a callable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/support/types.hpp"

namespace leak::net {

/// An opaque message: payload identifier plus sender.  Higher layers map
/// `payload_id` back to real content (attestations, blocks).
struct Packet {
  ValidatorIndex from{};
  std::uint64_t payload_id = 0;
};

/// The delivery sink: each delivered copy is one call to on_deliver.
class Receiver {
 public:
  virtual void on_deliver(ValidatorIndex to, const Packet& p) = 0;

 protected:
  ~Receiver() = default;
};

/// Discrete-event scheduler.  Owns simulated time.
class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `action` at absolute time `t` (>= now; NaN throws).
  /// Events scheduled at equal times run in scheduling order.
  void schedule_at(SimTime t, Action action);

  /// Schedule the delivery of `p` to `to` at absolute time `t` (>= now),
  /// in one order with schedule_at's events.  Throws std::logic_error
  /// when no receiver is registered.
  void schedule_delivery(SimTime t, ValidatorIndex to, const Packet& p);

  /// Register the one receiver that deliveries pop into; it must outlive
  /// every delivery run.
  void set_receiver(Receiver* receiver) { receiver_ = receiver; }

  /// Run events until the queue is empty or `limit` is passed.  Events at
  /// exactly `limit` are executed.  Returns the number of events run.
  std::size_t run_until(SimTime limit);

  /// Deliveries handed to the receiver so far.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  /// A scheduled event.  `ref` is a delivery's index into `in_flight_`,
  /// or a generic event's index into `actions_`.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t ref;
  };

  /// 4-ary min-heap of entries by (time, seq): the children of i are
  /// 4i+1 .. 4i+4.
  class Heap {
   public:
    void push(const Entry& e);
    /// Remove and return the earliest entry.
    Entry pop();
    [[nodiscard]] const Entry& top() const { return v_.front(); }
    [[nodiscard]] bool empty() const { return v_.empty(); }

   private:
    std::vector<Entry> v_;
  };

  /// `t` checked against now, as an entry time (-0.0 becomes +0.0).
  [[nodiscard]] SimTime entry_time(SimTime t, const char* what) const;

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  /// Generic events and deliveries wait in separate heaps stamped from
  /// one seq counter, and run_until pops whichever top is earlier, so
  /// the merged order is exactly (time, seq).  The deliveries' heap
  /// stays shallow: the generic events a simulation schedules ahead
  /// never sit in it.  One merged heap measured about 6% fewer slot
  /// trials per second (perfbench, 4 vCPUs).
  Heap generic_;
  Heap deliveries_;
  /// Generic actions by index; a run action's index is reused.
  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_actions_;
  /// Copies in flight by slot, beside the 24-byte heap entries that
  /// name them; a delivered copy's slot is reused.
  struct InFlight {
    ValidatorIndex to{};
    Packet packet{};
  };
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  Receiver* receiver_ = nullptr;
  std::uint64_t delivered_ = 0;
};

}  // namespace leak::net
