#include "src/net/network.hpp"

#include <stdexcept>

namespace leak::net {

namespace {

/// StreamSeeder lane for the weather (loss) draws: any fixed tag keeps
/// the lane disjoint from Rng(seed) itself.
constexpr std::uint64_t kWeatherStream = 0x57454154;  // "WEAT"

bool link_matches(LinkClass episode, bool cross) {
  return episode == LinkClass::kAll ||
         episode == (cross ? LinkClass::kCross : LinkClass::kIntra);
}

}  // namespace

Network::Network(EventQueue& queue, NetworkConfig config)
    : queue_(queue),
      config_(std::move(config)),
      regions_(config_.num_nodes, Region::kOne),
      rng_(config_.seed),
      weather_rng_(StreamSeeder(config_.seed).stream(kWeatherStream)) {
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("Network: num_nodes must be > 0");
  }
  if (config_.min_delay < 0 || config_.delta < config_.min_delay) {
    throw std::invalid_argument("Network: need 0 <= min_delay <= delta");
  }
  for (const LatencyEpisode& e : config_.latency_episodes) {
    if (e.to <= e.from || e.factor <= 0.0) {
      throw std::invalid_argument(
          "Network: latency episode needs to > from and factor > 0");
    }
  }
  for (const LossEpisode& e : config_.loss_episodes) {
    if (e.to <= e.from || e.drop < 0.0 || e.drop > 1.0) {
      throw std::invalid_argument(
          "Network: loss episode needs to > from and drop in [0, 1]");
    }
  }
  queue_.set_delivery_sink([this](std::uint32_t slot) { deliver_slot(slot); });
}

void Network::set_region(ValidatorIndex v, Region r) {
  regions_.at(v.value()) = r;
}

Region Network::region(ValidatorIndex v) const {
  return regions_.at(v.value());
}

bool Network::reachable(ValidatorIndex src, ValidatorIndex dst) const {
  if (queue_.now() >= config_.gst) return true;
  const Region a = regions_.at(src.value());
  const Region b = regions_.at(dst.value());
  if (a == Region::kBoth || b == Region::kBoth) return true;
  return a == b;
}

double Network::jitter() {
  return rng_.uniform(config_.min_delay, config_.delta);
}

bool Network::link_is_cross(ValidatorIndex a, ValidatorIndex b) const {
  const Region ra = regions_.at(a.value());
  const Region rb = regions_.at(b.value());
  return ra != rb && ra != Region::kBoth && rb != Region::kBoth;
}

double Network::latency_factor(SimTime at, bool cross) const {
  double factor = 1.0;
  for (const LatencyEpisode& e : config_.latency_episodes) {
    if (at >= e.from && at < e.to && link_matches(e.link, cross)) {
      factor *= e.factor;
    }
  }
  return factor;
}

bool Network::weather_drops(SimTime at, bool cross) {
  double pass = 1.0;
  for (const LossEpisode& e : config_.loss_episodes) {
    if (at >= e.from && at < e.to && link_matches(e.link, cross)) {
      pass *= 1.0 - e.drop;
    }
  }
  // Draw only when an episode is actually in force, so runs without
  // active weather consume zero draws from the lane.
  if (pass >= 1.0) return false;
  return weather_rng_.bernoulli(1.0 - pass);
}

void Network::send_one(SimTime base, ValidatorIndex from, ValidatorIndex to,
                       const Packet& p) {
  // The jitter draw always happens (even for a copy that is then
  // dropped), so the legacy delay stream is identical whether or not
  // weather is configured or strikes.
  double j = jitter();
  const bool cross = link_is_cross(from, to);
  const double factor = latency_factor(queue_.now(), cross);
  if (factor != 1.0) {
    j = config_.min_delay + factor * (j - config_.min_delay);
  }
  if (weather_drops(queue_.now(), cross)) {
    ++dropped_;
    return;
  }
  deliver_later(base + j, to, p);
}

void Network::deliver_later(SimTime when, ValidatorIndex to, Packet p) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(InFlight{to, p});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = InFlight{to, p};
  }
  queue_.schedule_delivery(when, slot);
}

void Network::deliver_slot(std::uint32_t slot) {
  const InFlight f = in_flight_[slot];
  free_slots_.push_back(slot);
  ++delivered_;
  if (deliver_) deliver_(f.to, f.packet);
}

void Network::broadcast(ValidatorIndex from, std::uint64_t payload_id) {
  ++sent_;
  const Packet p{from, payload_id};
  for (std::uint32_t i = 0; i < config_.num_nodes; ++i) {
    const ValidatorIndex to{i};
    if (reachable(from, to)) {
      send_one(queue_.now(), from, to, p);
    } else {
      // Best-effort broadcast: messages sent before GST arrive at most at
      // GST + Delta once the partition heals.
      send_one(config_.gst, from, to, p);
    }
  }
}

void Network::release_at(SimTime when, ValidatorIndex from,
                         const std::vector<ValidatorIndex>& audience,
                         std::uint64_t payload_id) {
  if (when < queue_.now()) {
    throw std::invalid_argument("release_at: time in the past");
  }
  // The adversary's release channel is out-of-band by construction
  // (withheld data handed over directly), so weather does not afflict
  // it.
  ++sent_;
  const Packet p{from, payload_id};
  for (ValidatorIndex to : audience) {
    deliver_later(when, to, p);
  }
}

}  // namespace leak::net
