// Slot simulator layers: the per-trial costs under one `slot` cell.
// Every slot trial rebuilds a DutyRoster per epoch (two swap-or-not
// shuffles whose inputs are one-block SHA-256 messages) and delivers
// about 12k network events, so these four cases are the crypto, chain
// and net layers of a 44-validator trial (32 honest + 12 Byzantine, the
// `balancing-attack` cell).
#include "bench/bench_common.hpp"

#include <cstdint>
#include <string>

#include "src/chain/registry.hpp"
#include "src/chain/shuffle.hpp"
#include "src/crypto/sha256.hpp"
#include "src/net/event_queue.hpp"
#include "src/net/network.hpp"

namespace {

using namespace leak;

/// Validators in the `balancing-attack` cell.
constexpr std::uint32_t kValidators = 44;
/// Broadcasts per trial shape: 3 per slot over 3 epochs, each
/// delivered to all 44 nodes (about 12.7k delivery events).
constexpr std::uint32_t kSlots = 96;
constexpr std::uint32_t kBroadcastsPerSlot = 3;

void report() {
  bench::print_header("Slot simulator layers: one trial's shape");
  Table t({"quantity", "value"});
  t.add_row({"validators", std::to_string(kValidators)});
  t.add_row({"shuffle hash input bytes", "33 (pivot), 37 (source block)"});
  t.add_row({"delivery events per trial shape",
             std::to_string(kSlots * kBroadcastsPerSlot * kValidators)});
  bench::emit(t, "slot_layers.csv");
}

/// One-block SHA-256: a 37-byte message, the shuffle's source-block input.
void BM_Sha256OneBlock(benchmark::State& state) {
  std::string msg(37, '\0');
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<char>(i * 7 + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(msg));
    msg[32] = static_cast<char>(msg[32] + 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 37);
}
BENCHMARK(BM_Sha256OneBlock);

/// The full 90-round swap-or-not permutation of 44 indices.
void BM_ShuffleList44(benchmark::State& state) {
  crypto::Digest seed = crypto::sha256(std::string_view("slot-layers"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain::shuffle_list(kValidators, seed));
    ++seed[0];
  }
}
BENCHMARK(BM_ShuffleList44);

/// One epoch's duties at 44 validators: committees and proposers.
void BM_DutyRoster44(benchmark::State& state) {
  const chain::ValidatorRegistry registry(kValidators);
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    const chain::DutyRoster roster(registry, Epoch{epoch++}, 42);
    benchmark::DoNotOptimize(roster.proposer(0).value());
  }
}
BENCHMARK(BM_DutyRoster44);

/// Schedule and pop one trial's delivery events: per slot, three
/// broadcasts to all 44 nodes, scheduled by timed actions the way the
/// slot simulator schedules its proposals and attestations.
void BM_EventQueueTrialShape(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    net::NetworkConfig config;
    config.num_nodes = kValidators;
    config.seed = 7;
    net::EventQueue queue;
    net::Network network(queue, config);
    std::uint64_t delivered = 0;
    network.set_deliver([&delivered](ValidatorIndex, const net::Packet&) {
      ++delivered;
    });
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      queue.schedule_at(12.0 * s, [&network, s] {
        for (std::uint32_t b = 0; b < kBroadcastsPerSlot; ++b) {
          network.broadcast(ValidatorIndex{(s * kBroadcastsPerSlot + b) %
                                           kValidators},
                            s * kBroadcastsPerSlot + b);
        }
      });
    }
    events += queue.run_until(kSimTimeInfinity);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueTrialShape);

}  // namespace

LEAK_BENCH_MAIN(report)
