#include "src/net/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace leak::net {

namespace {

/// (time, seq) as one unsigned integer.  Entry times are never negative
/// or NaN, and the bits of non-negative doubles order as their values,
/// so comparing keys is comparing (time, seq) without a branch.
unsigned __int128 key(SimTime time, std::uint64_t seq) {
  return (static_cast<unsigned __int128>(std::bit_cast<std::uint64_t>(time))
          << 64) |
         seq;
}

}  // namespace

SimTime EventQueue::entry_time(SimTime t, const char* what) const {
  if (!(t >= now_)) {
    throw std::invalid_argument(std::string(what) +
                                ": time is NaN or in the past");
  }
  return t + 0.0;
}

void EventQueue::schedule_at(SimTime t, Action action) {
  t = entry_time(t, "schedule_at");
  std::uint32_t index = 0;
  if (free_actions_.empty()) {
    index = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    index = free_actions_.back();
    free_actions_.pop_back();
    actions_[index] = std::move(action);
  }
  generic_.push(Entry{t, next_seq_++, index});
}

void EventQueue::schedule_delivery(SimTime t, std::uint32_t slot) {
  t = entry_time(t, "schedule_delivery");
  if (!sink_) throw std::logic_error("schedule_delivery: no delivery sink");
  deliveries_.push(Entry{t, next_seq_++, slot});
}

void EventQueue::Heap::push(const Entry& e) {
  const unsigned __int128 k = key(e.time, e.seq);
  std::size_t i = v_.size();
  v_.push_back(e);
  // Sift the hole up to e's place.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(k < key(v_[parent].time, v_[parent].seq))) break;
    v_[i] = v_[parent];
    i = parent;
  }
  v_[i] = e;
}

EventQueue::Entry EventQueue::Heap::pop() {
  const Entry top = v_.front();
  const Entry last = v_.back();
  v_.pop_back();
  const std::size_t n = v_.size();
  if (n == 0) return top;
  // Sift the hole at the root down to where `last` belongs.  The
  // earliest child is chosen by selects, not branches.
  const unsigned __int128 last_key = key(last.time, last.seq);
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    unsigned __int128 best_key = key(v_[first].time, v_[first].seq);
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      const unsigned __int128 k = key(v_[c].time, v_[c].seq);
      const bool earlier = k < best_key;
      best = earlier ? c : best;
      best_key = earlier ? k : best_key;
    }
    if (!(best_key < last_key)) break;
    v_[i] = v_[best];
    i = best;
  }
  v_[i] = last;
  return top;
}

std::size_t EventQueue::run_until(SimTime limit) {
  std::size_t executed = 0;
  for (;;) {
    bool delivery = !deliveries_.empty();
    if (delivery && !generic_.empty()) {
      const Entry& d = deliveries_.top();
      const Entry& g = generic_.top();
      delivery = key(d.time, d.seq) < key(g.time, g.seq);
    } else if (!delivery && generic_.empty()) {
      break;
    }
    Heap& heap = delivery ? deliveries_ : generic_;
    if (heap.top().time > limit) break;
    const Entry e = heap.pop();
    now_ = e.time;
    if (delivery) {
      sink_(e.ref);
    } else {
      // Out of the table before running, so the action may schedule more.
      const Action action = std::move(actions_[e.ref]);
      free_actions_.push_back(e.ref);
      action();
    }
    ++executed;
  }
  if (now_ < limit) now_ = limit;
  return executed;
}

}  // namespace leak::net
