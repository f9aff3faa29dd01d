// Tests for the discrete-event queue and the partitioned network model.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/net/event_queue.hpp"
#include "src/net/network.hpp"
#include "src/support/random.hpp"

namespace leak::net {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_until(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoTiesAtEqualTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(2.0, [&] { ++count; });
  q.schedule_at(3.0, [&] { ++count; });
  EXPECT_EQ(q.run_until(2.0), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, EventsMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    q.schedule_at(q.now() + 1.0, [&] { ++fired; });
  });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_until(2.0);
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, DeliveryNeedsASinkAndAFutureTime) {
  EventQueue q;
  EXPECT_THROW(q.schedule_delivery(1.0, 0), std::logic_error);
  std::vector<std::uint32_t> got;
  q.set_delivery_sink([&](std::uint32_t slot) { got.push_back(slot); });
  q.schedule_delivery(1.0, 7);
  q.run_until(1.0);
  EXPECT_EQ(got, std::vector<std::uint32_t>{7});
  EXPECT_THROW(q.schedule_delivery(0.5, 1), std::invalid_argument);
  EXPECT_THROW(q.schedule_delivery(std::nan(""), 1), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_EQ(q.pending(), 0U);
}

TEST(EventQueue, MixedScheduleReplaysPriorityQueueOrder) {
  // A seeded schedule of generic and delivery events on a coarse time
  // grid (many equal timestamps), where some generic events schedule
  // more as they run, must pop in the order of a std::priority_queue
  // ordered by (time, seq).
  struct Planned {
    double time;
    bool delivery;
  };
  Rng rng(21);
  std::vector<Planned> plan;
  for (int i = 0; i < 4000; ++i) {
    plan.push_back({0.25 * static_cast<double>(rng.uniform_index(64)),
                    rng.bernoulli(0.7)});
  }
  // A generic event whose id is a multiple of 5 schedules a delivery
  // at its own time and a generic event 0.25 s later.
  const auto spawns = [](std::uint32_t id) { return id % 5 == 0; };

  using Popped = std::pair<bool, std::uint32_t>;  // (delivery, id)
  std::vector<Popped> got;
  EventQueue q;
  q.set_delivery_sink([&](std::uint32_t id) { got.emplace_back(true, id); });
  std::uint32_t next_id = 0;
  std::function<void(double, bool)> add = [&](double t, bool delivery) {
    const std::uint32_t id = next_id++;
    if (delivery) {
      q.schedule_delivery(t, id);
      return;
    }
    q.schedule_at(t, [&, id] {
      got.emplace_back(false, id);
      if (spawns(id)) {
        add(q.now(), true);
        add(q.now() + 0.25, false);
      }
    });
  };
  for (const Planned& p : plan) add(p.time, p.delivery);
  for (double limit = 0.5; limit < 20.0; limit += 1.5) q.run_until(limit);
  q.run_until(kSimTimeInfinity);

  struct Ref {
    double time;
    std::uint64_t seq;
    std::uint32_t id;
    bool delivery;
  };
  struct Later {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, Later> ref;
  std::uint64_t seq = 0;
  const auto ref_add = [&](double t, bool delivery) {
    ref.push(Ref{t, seq, static_cast<std::uint32_t>(seq), delivery});
    ++seq;
  };
  for (const Planned& p : plan) ref_add(p.time, p.delivery);
  std::vector<Popped> want;
  while (!ref.empty()) {
    const Ref e = ref.top();
    ref.pop();
    want.emplace_back(e.delivery, e.id);
    if (!e.delivery && spawns(e.id)) {
      ref_add(e.time, true);
      ref_add(e.time + 0.25, false);
    }
  }
  EXPECT_GT(want.size(), plan.size());
  EXPECT_EQ(got, want);
  EXPECT_EQ(q.pending(), 0U);
}

struct Rig {
  EventQueue queue;
  NetworkConfig cfg;
  Network net;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> delivered;

  explicit Rig(NetworkConfig c) : cfg(c), net(queue, c) {
    net.set_deliver([this](ValidatorIndex to, const Packet& p) {
      delivered.emplace_back(to.value(), p.payload_id);
    });
  }
};

TEST(NetworkTest, BroadcastReachesEveryoneNoPartition) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 5;
  c.gst = 0.0;
  Rig rig(c);
  rig.net.broadcast(ValidatorIndex{0}, 99);
  rig.queue.run_until(10.0);
  EXPECT_EQ(rig.delivered.size(), 5u);
  for (const auto& [to, id] : rig.delivered) EXPECT_EQ(id, 99u);
}

TEST(NetworkTest, DeliveryWithinDelta) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 3;
  c.delta = 0.8;
  Rig rig(c);
  double max_seen = 0.0;
  rig.net.set_deliver([&](ValidatorIndex, const Packet&) {
    max_seen = std::max(max_seen, rig.queue.now());
  });
  rig.net.broadcast(ValidatorIndex{1}, 1);
  rig.queue.run_until(10.0);
  EXPECT_LE(max_seen, 0.8);
  EXPECT_GT(max_seen, 0.0);
}

TEST(NetworkTest, PartitionBlocksCrossRegionUntilGst) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 4;
  c.gst = 100.0;
  c.delta = 1.0;
  Rig rig(c);
  rig.net.set_region(ValidatorIndex{0}, Region::kOne);
  rig.net.set_region(ValidatorIndex{1}, Region::kOne);
  rig.net.set_region(ValidatorIndex{2}, Region::kTwo);
  rig.net.set_region(ValidatorIndex{3}, Region::kTwo);

  EXPECT_TRUE(rig.net.reachable(ValidatorIndex{0}, ValidatorIndex{1}));
  EXPECT_FALSE(rig.net.reachable(ValidatorIndex{0}, ValidatorIndex{2}));

  std::vector<double> times_to_2;
  rig.net.set_deliver([&](ValidatorIndex to, const Packet&) {
    if (to == ValidatorIndex{2}) times_to_2.push_back(rig.queue.now());
  });
  rig.net.broadcast(ValidatorIndex{0}, 7);
  rig.queue.run_until(200.0);
  // Best-effort broadcast: node 2 still gets it, but only after GST.
  ASSERT_EQ(times_to_2.size(), 1u);
  EXPECT_GE(times_to_2[0], 100.0);
  EXPECT_LE(times_to_2[0], 101.0);
}

TEST(NetworkTest, ByzantineStraddlesPartition) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 3;
  c.gst = 100.0;
  Rig rig(c);
  rig.net.set_region(ValidatorIndex{0}, Region::kOne);
  rig.net.set_region(ValidatorIndex{1}, Region::kTwo);
  rig.net.set_region(ValidatorIndex{2}, Region::kBoth);
  EXPECT_TRUE(rig.net.reachable(ValidatorIndex{2}, ValidatorIndex{0}));
  EXPECT_TRUE(rig.net.reachable(ValidatorIndex{2}, ValidatorIndex{1}));
  EXPECT_TRUE(rig.net.reachable(ValidatorIndex{0}, ValidatorIndex{2}));
}

TEST(NetworkTest, AfterGstEverythingReachable) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 2;
  c.gst = 5.0;
  Rig rig(c);
  rig.net.set_region(ValidatorIndex{0}, Region::kOne);
  rig.net.set_region(ValidatorIndex{1}, Region::kTwo);
  rig.queue.schedule_at(6.0, [] {});
  rig.queue.run_until(6.0);
  EXPECT_TRUE(rig.net.reachable(ValidatorIndex{0}, ValidatorIndex{1}));
}

TEST(NetworkTest, ReleaseAtDeliversToAudienceOnly) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 4;
  c.gst = 100.0;
  Rig rig(c);
  rig.net.release_at(10.0, ValidatorIndex{3},
                     {ValidatorIndex{0}, ValidatorIndex{2}}, 55);
  rig.queue.run_until(50.0);
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.delivered[0].first, 0u);
  EXPECT_EQ(rig.delivered[1].first, 2u);
}

TEST(NetworkTest, MessageCountersTrack) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 3;
  Rig rig(c);
  rig.net.broadcast(ValidatorIndex{0}, 1);
  rig.net.broadcast(ValidatorIndex{1}, 2);
  rig.queue.run_until(10.0);
  EXPECT_EQ(rig.net.messages_sent(), 2u);
  EXPECT_EQ(rig.net.messages_delivered(), 6u);
}

// --- scripted weather (latency/loss episodes) ------------------------------

/// Delivery times for one broadcast from node 0 under `c`.
std::vector<double> broadcast_times(NetworkConfig c) {
  EventQueue q;
  Network net(q, c);
  std::vector<double> times;
  net.set_deliver([&](ValidatorIndex, const Packet&) {
    times.push_back(q.now());
  });
  net.broadcast(ValidatorIndex{0}, 1);
  q.run_until(1000.0);
  return times;
}

TEST(NetworkWeather, EpisodesOutsideTheSendWindowAreBitIdentical) {
  // Weather scheduled long after the send must leave every delivery
  // time untouched: episode checks never consume the jitter stream,
  // and loss draws come from a dedicated lane.
  NetworkConfig plain;
  plain.seed = 42;  // pinned: default, explicit for determinism
  plain.num_nodes = 6;
  NetworkConfig weather = plain;
  weather.latency_episodes.push_back({500.0, 600.0, LinkClass::kAll, 10.0});
  weather.loss_episodes.push_back({500.0, 600.0, LinkClass::kAll, 0.9});
  EXPECT_EQ(broadcast_times(plain), broadcast_times(weather));
}

TEST(NetworkWeather, LatencyEpisodeStretchesJitterDeterministically) {
  // An active factor-3 episode maps each delivery time t to
  // min_delay + 3 * (t - min_delay): same jitter draws, stretched.
  NetworkConfig plain;
  plain.seed = 42;  // pinned: default, explicit for determinism
  plain.num_nodes = 6;
  plain.delta = 1.0;
  plain.min_delay = 0.05;
  NetworkConfig slow = plain;
  slow.latency_episodes.push_back({0.0, 10.0, LinkClass::kAll, 3.0});
  const auto fast_times = broadcast_times(plain);
  const auto slow_times = broadcast_times(slow);
  ASSERT_EQ(fast_times.size(), slow_times.size());
  for (std::size_t i = 0; i < fast_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(slow_times[i], 0.05 + 3.0 * (fast_times[i] - 0.05));
    // factor > 1 deliberately violates the synchrony bound Delta...
    EXPECT_LE(slow_times[i], 0.05 + 3.0 * (1.0 - 0.05));
    // ...but never undercuts the propagation floor.
    EXPECT_GE(slow_times[i], 0.05);
  }
}

TEST(NetworkWeather, FullLossDropsEveryCopyAndCounts) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 5;
  c.loss_episodes.push_back({0.0, 10.0, LinkClass::kAll, 1.0});
  Rig rig(c);
  rig.net.broadcast(ValidatorIndex{0}, 3);
  rig.queue.run_until(50.0);
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.net.messages_dropped(), 5u);
  EXPECT_EQ(rig.net.messages_delivered(), 0u);
  EXPECT_EQ(rig.net.messages_sent(), 1u);
}

TEST(NetworkWeather, CrossOnlyLossSparesIntraRegionLinks) {
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 4;
  c.gst = 0.0;  // partition already healed: only the weather bites
  c.loss_episodes.push_back({0.0, 10.0, LinkClass::kCross, 1.0});
  Rig rig(c);
  rig.net.set_region(ValidatorIndex{0}, Region::kOne);
  rig.net.set_region(ValidatorIndex{1}, Region::kOne);
  rig.net.set_region(ValidatorIndex{2}, Region::kTwo);
  rig.net.set_region(ValidatorIndex{3}, Region::kTwo);
  rig.net.broadcast(ValidatorIndex{0}, 9);
  rig.queue.run_until(50.0);
  // Intra copies (self + node 1) land; the two cross copies drop.
  ASSERT_EQ(rig.delivered.size(), 2u);
  for (const auto& [to, id] : rig.delivered) EXPECT_LT(to, 2u);
  EXPECT_EQ(rig.net.messages_dropped(), 2u);
}

TEST(NetworkWeather, SameSeedSameWeatherOutcome) {
  NetworkConfig c;
  c.seed = 7;
  c.num_nodes = 8;
  c.loss_episodes.push_back({0.0, 10.0, LinkClass::kAll, 0.5});
  Rig a(c);
  Rig b(c);
  a.net.broadcast(ValidatorIndex{2}, 11);
  b.net.broadcast(ValidatorIndex{2}, 11);
  a.queue.run_until(50.0);
  b.queue.run_until(50.0);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.net.messages_dropped(), b.net.messages_dropped());
}

TEST(NetworkTest, BadConfigThrows) {
  EventQueue q;
  NetworkConfig c;
  c.seed = 42;  // pinned: default, explicit for determinism
  c.num_nodes = 0;
  EXPECT_THROW(Network(q, c), std::invalid_argument);
  c.num_nodes = 1;
  c.min_delay = 2.0;
  c.delta = 1.0;
  EXPECT_THROW(Network(q, c), std::invalid_argument);
}

}  // namespace
}  // namespace leak::net
