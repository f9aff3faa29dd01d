#include "src/net/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace leak::net {

void EventQueue::schedule_at(SimTime t, Action action) {
  if (t < now_) throw std::invalid_argument("schedule_at: time in the past");
  heap_.push_back(Entry{t, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Entry EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

std::size_t EventQueue::run_until(SimTime limit) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().time <= limit) {
    // Out of the heap before running, so the action may schedule more.
    Entry e = pop();
    now_ = e.time;
    e.action();
    ++executed;
  }
  if (now_ < limit) now_ = limit;
  return executed;
}

}  // namespace leak::net
