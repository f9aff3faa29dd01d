// Discrete-event simulation core: a time-ordered queue of callbacks.
// Deterministic: ties in time are broken by insertion order.
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

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `action` at absolute time `t` (>= now).  Events scheduled at
  /// equal times run in scheduling order.
  void schedule_at(SimTime t, Action action);

  /// Run events until the queue is empty or `limit` is passed.  Events at
  /// exactly `limit` are executed.  Returns the number of events run.
  std::size_t run_until(SimTime limit);

  /// Pending event count.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Action action;
  };
  /// Remove the earliest entry, moved out of the heap.
  Entry pop();

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  /// Binary min-heap by (time, seq) under Later; a plain vector so
  /// that pop can move the earliest entry out instead of copying it.
  std::vector<Entry> heap_;
};

}  // namespace leak::net
