// Discrete-event simulation core: a time-ordered queue of events.
// Deterministic: ties in time are broken by insertion order.
//
// Two kinds of event share one (time, seq) order.  A generic event runs
// a callable.  A delivery is a typed record whose only payload is a
// 32-bit in-flight slot, popped into the one delivery sink the network
// registers; scheduling it neither builds nor destroys a callable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/support/types.hpp"

namespace leak::net {

/// Discrete-event scheduler.  Owns simulated time.
class EventQueue {
 public:
  using Action = std::function<void()>;
  /// Receives the slot of each delivery as it comes due.
  using DeliverySink = std::function<void(std::uint32_t)>;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `action` at absolute time `t` (>= now; NaN throws).
  /// Events scheduled at equal times run in scheduling order.
  void schedule_at(SimTime t, Action action);

  /// Schedule the delivery of in-flight `slot` to the sink at absolute
  /// time `t` (>= now), in one order with schedule_at's events.  Throws
  /// std::logic_error when no sink is registered.
  void schedule_delivery(SimTime t, std::uint32_t slot);

  /// Register the one sink that deliveries pop into.
  void set_delivery_sink(DeliverySink sink) { sink_ = std::move(sink); }

  /// Run events until the queue is empty or `limit` is passed.  Events at
  /// exactly `limit` are executed.  Returns the number of events run.
  std::size_t run_until(SimTime limit);

  /// Pending event count.
  [[nodiscard]] std::size_t pending() const {
    return generic_.size() + deliveries_.size();
  }

 private:
  /// A scheduled event.  `ref` is a delivery's slot, or a generic
  /// event's index into `actions_`.
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
    [[nodiscard]] std::size_t size() const { return v_.size(); }

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
  DeliverySink sink_;
};

}  // namespace leak::net
