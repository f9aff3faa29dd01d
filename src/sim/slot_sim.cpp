#include "src/sim/slot_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "src/chain/shuffle.hpp"

namespace leak::sim {

namespace {

using chain::Attestation;
using chain::Block;
using chain::Checkpoint;
using chain::Digest;

/// Attestation broadcast offset within a slot (like mainnet's 4 s mark).
constexpr double kAttestationOffset = 4.0;

/// Sentinel for "no slot currently boosted" in a view.
constexpr std::uint64_t kNoBoostSlot = std::numeric_limits<std::uint64_t>::max();

/// An attestation as the simulator sends it: with its head vote's
/// store index beside the digest, so no delivery maps the digest back.
struct Vote {
  Attestation att;
  std::uint32_t head = 0;
};

}  // namespace

/// The simulation is its queue's Receiver: every delivery is one
/// virtual call into on_deliver.
struct SlotSim::Impl final : net::Receiver {
  explicit Impl(SlotSimConfig config)
      : cfg(config),
        n(config.n_honest + config.n_byzantine),
        network(queue,
                net::NetworkConfig{
                    .num_nodes = config.n_honest + config.n_byzantine,
                    .delta = config.delta,
                    .min_delay = kMinDelay,
                    .gst = config.gst_epoch * 32.0 * kSecondsPerSlot,
                    .seed = config.seed,
                    .latency_episodes = config.latency_episodes,
                    .loss_episodes = config.loss_episodes}),
        registry(config.n_honest + config.n_byzantine),
        monitor(global_tree) {
    queue.set_receiver(this);
    setup_regions();
    setup_views();
  }

  /// One validator's local view of the chain: which of the shared
  /// store's blocks it has received, its fork choice over them, and its
  /// FFG votes.  Heap-held and never moved (`fc` refers to `blocks`).
  struct View {
    View(const chain::BlockTree& store, const chain::ValidatorRegistry& reg,
         chain::ForkChoice::Scratch* scratch)
        : blocks(store),
          fc(blocks, reg, scratch),
          ffg(reg, Checkpoint{store.genesis_id(), Epoch{0}}) {}

    chain::BlockView blocks;
    chain::ForkChoice fc;
    finality::FfgTracker ffg;
    /// Store indices of blocks whose parent has not arrived yet, by
    /// parent index.  Ordered maps throughout this TU (leaklint D4):
    /// src/sim is a kernel/reduction layer, and ordered containers make
    /// even an accidental future iteration deterministic.
    std::map<std::uint32_t, std::vector<std::uint32_t>> orphans;
    /// Slot whose proposal currently carries the fork-choice boost in
    /// this view (kNoBoostSlot when none; unused when the boost is off).
    std::uint64_t boost_slot = kNoBoostSlot;
    /// The justified checkpoint's block and its store index, looked up
    /// again only when the checkpoint moves.
    Digest justified_block{};
    std::optional<std::uint32_t> justified_index;
  };

  SlotSimConfig cfg;
  std::uint32_t n;
  net::EventQueue queue;
  net::Network network;
  chain::ValidatorRegistry registry;

  /// Every block, each entered before it is broadcast; the views hold
  /// membership into it.  Declared before the views so it outlives them.
  chain::BlockTree global_tree;
  /// The fork-choice buffers every view's queries fill in turn.
  chain::ForkChoice::Scratch fc_scratch;
  /// Fork side per store index (balancing attack): 0 / 1 for an
  /// equivocation sibling and its descendants, -1 for pre-fork blocks.
  std::vector<std::int8_t> side_by_index{-1};

  /// What a payload id names: a block (its store index) or an
  /// attestation.
  std::vector<std::variant<std::uint32_t, Vote>> payloads;
  std::vector<std::unique_ptr<View>> views;          // [0, n)
  std::vector<std::unique_ptr<View>> byz_alt_views;  // second view per byz
  /// One per honest validator, remembering payload ids.
  std::vector<penalties::SlashingDetector> detectors;
  /// (sender, payload id) of equivocations hidden during the partition;
  /// gossip re-propagates them once the partition heals.
  std::vector<std::pair<ValidatorIndex, std::uint64_t>> byz_withheld;

  // ---- balancing attack state ---------------------------------------
  /// (sender, payload id, side) of the withheld cross-side proposals;
  /// everything is released to the opposite half at the epoch boundary
  /// (the split must be refreshed by a new equivocation each epoch).
  std::vector<std::tuple<ValidatorIndex, std::uint64_t, int>> split_withheld;
  /// Honest validators with index parity `side`, plus every Byzantine.
  std::array<std::vector<ValidatorIndex>, 2> side_audiences;
  /// The validators in region one (two), plus every Byzantine: the
  /// audiences of a partitioned Byzantine's two attestations.
  std::array<std::vector<ValidatorIndex>, 2> region_audiences;
  /// Every validator, the audience of the re-gossip at GST.
  std::vector<ValidatorIndex> everyone;

  [[nodiscard]] bool balancing() const {
    return cfg.proposer_strategy == ProposerStrategy::kBalancing &&
           cfg.n_byzantine > 0;
  }

  finality::SafetyMonitor monitor;
  std::set<std::uint32_t> slashed_set;
  SlotSimResult result;
  std::vector<std::uint64_t> last_reported_finalized;

  [[nodiscard]] bool is_byz(std::uint32_t i) const { return i >= cfg.n_honest; }

  void setup_regions() {
    const auto n_region1 = static_cast<std::uint32_t>(
        std::llround(cfg.p0 * static_cast<double>(cfg.n_honest)));
    for (std::uint32_t i = 0; i < n; ++i) {
      net::Region r = net::Region::kOne;
      if (is_byz(i)) {
        r = net::Region::kBoth;
      } else if (i >= n_region1) {
        r = net::Region::kTwo;
      }
      network.set_region(ValidatorIndex{i}, r);
    }
  }

  std::unique_ptr<View> make_view() {
    return std::make_unique<View>(global_tree, registry, &fc_scratch);
  }

  void setup_views() {
    views.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) views.push_back(make_view());
    for (std::uint32_t i = 0; i < cfg.n_byzantine; ++i) {
      byz_alt_views.push_back(make_view());
    }
    detectors.reserve(cfg.n_honest);
    for (std::uint32_t i = 0; i < cfg.n_honest; ++i) {
      detectors.emplace_back([this](std::uint64_t id) -> const Attestation& {
        return std::get<Vote>(payloads[id]).att;
      });
    }
    last_reported_finalized.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      const ValidatorIndex v{i};
      everyone.push_back(v);
      if (is_byz(i)) {
        side_audiences[0].push_back(v);
        side_audiences[1].push_back(v);
      } else {
        side_audiences[i % 2].push_back(v);
      }
      const net::Region r = network.region(v);
      if (r != net::Region::kTwo) region_audiences[0].push_back(v);
      if (r != net::Region::kOne) region_audiences[1].push_back(v);
    }
  }

  /// Enter a new block in the shared store and return its index.  An
  /// equivocation sibling pins its fork `side`; any other block (side
  /// -1) inherits its parent's.
  std::uint32_t store_block(const Block& b, int side) {
    // Every block is new: its id hashes its slot and proposer, and no
    // proposer makes two blocks with one body in a slot.
    global_tree.insert(b);
    const auto i = static_cast<std::uint32_t>(global_tree.size() - 1);
    side_by_index.resize(global_tree.size(), -1);
    side_by_index[i] = static_cast<std::int8_t>(
        side >= 0 ? side : side_by_index[global_tree.parent_index(i)]);
    return i;
  }

  /// The Byzantine secondary view tracks region two; the primary view of
  /// a Byzantine validator tracks region one.
  View& byz_view_for_region(std::uint32_t byz, net::Region r) {
    return r == net::Region::kTwo
               ? *byz_alt_views[byz - cfg.n_honest]
               : *views[byz];
  }

  // ---- proposer boost ----------------------------------------------

  [[nodiscard]] std::uint64_t current_slot_number() const {
    return static_cast<std::uint64_t>(queue.now() / kSecondsPerSlot);
  }

  /// Drop a boost left over from an earlier slot (the boost only lives
  /// until the slot ends).  No-op when the boost is disabled, the
  /// default: fork choice then weighs attestations alone.
  void refresh_boost(View& v) {
    if (cfg.proposer_boost == 0) return;
    if (v.boost_slot != kNoBoostSlot &&
        v.boost_slot != current_slot_number()) {
      v.fc.clear_proposer_boost();
      v.boost_slot = kNoBoostSlot;
    }
  }

  /// Credit a timely current-slot proposal with the boost: the block
  /// must belong to the slot in progress and arrive before the
  /// attestation deadline, mirroring the mainnet timeliness condition.
  void maybe_boost(View& v, std::uint32_t i) {
    if (cfg.proposer_boost == 0) return;
    refresh_boost(v);
    const std::uint64_t s = current_slot_number();
    const double offset =
        queue.now() - static_cast<double>(s) * kSecondsPerSlot;
    if (global_tree.by_index(i).slot.value() == s &&
        offset < kAttestationOffset) {
      v.fc.set_proposer_boost(i, cfg.proposer_boost);
      v.boost_slot = s;
    }
  }

  // ---- ingestion ----------------------------------------------------

  /// Give a view store block `i`, or park it until its parent arrives.
  void ingest_block(View& v, std::uint32_t i) {
    if (v.blocks.contains(i)) return;
    const std::uint32_t parent = global_tree.parent_index(i);
    if (!v.blocks.contains(parent)) {
      v.orphans[parent].push_back(i);
      return;
    }
    v.blocks.insert(i);
    maybe_boost(v, i);
    // Adopt any orphans waiting for this block, recursively.
    auto it = v.orphans.find(i);
    if (it != v.orphans.end()) {
      const std::vector<std::uint32_t> kids = std::move(it->second);
      v.orphans.erase(it);
      for (const std::uint32_t k : kids) ingest_block(v, k);
    }
  }

  void ingest_attestation(View& v, const Vote& vote) {
    v.fc.on_attestation(vote.att.attester, vote.head, vote.att.slot);
    v.ffg.on_checkpoint_vote(vote.att);
  }

  void on_deliver(ValidatorIndex to, const net::Packet& p) override {
    const auto& payload = payloads.at(p.payload_id);
    const std::uint32_t who = to.value();
    const auto* block = std::get_if<std::uint32_t>(&payload);
    const auto* att = std::get_if<Vote>(&payload);
    auto feed = [&](View& v) {
      if (block != nullptr) {
        ingest_block(v, *block);
      } else {
        ingest_attestation(v, *att);
      }
    };
    if (is_byz(who)) {
      if (balancing()) {
        // Route by fork side so each Byzantine view genuinely follows
        // one sibling's branch; pre-fork traffic feeds both.
        const int side = side_by_index[block != nullptr ? *block : att->head];
        if (side != 1) feed(*views[who]);
        if (side != 0) feed(*byz_alt_views[who - cfg.n_honest]);
        return;
      }
      // A Byzantine validator straddles the partition and receives both
      // regions' traffic; it keeps one view per region so its two
      // attestations genuinely follow the two branches.
      const net::Region sender_region = network.region(p.from);
      if (sender_region != net::Region::kTwo) feed(*views[who]);
      if (sender_region != net::Region::kOne) {
        feed(*byz_alt_views[who - cfg.n_honest]);
      }
      return;
    }
    if (block != nullptr) {
      feed(*views[who]);
      return;
    }
    // An honest view ingests the attestation and watches for
    // equivocations.
    ingest_attestation(*views[who], *att);
    if (auto proof = detectors[who].observe(p.payload_id)) {
      const std::uint32_t offender = proof->offender().value();
      if (!slashed_set.contains(offender)) {
        slashed_set.insert(offender);
        penalties::apply_slashing(registry, proof->offender(),
                                  current_epoch(), cfg.spec);
        result.slashed.push_back(proof->offender());
      }
    }
  }

  // ---- production ---------------------------------------------------

  [[nodiscard]] Epoch current_epoch() const {
    const auto slot = static_cast<std::uint64_t>(queue.now() /
                                                 kSecondsPerSlot);
    return Epoch{slot / kSlotsPerEpoch};
  }

  /// Duty roster per epoch (swap-or-not committees, balance-weighted
  /// proposers), built lazily against the live registry.
  std::map<std::uint64_t, chain::DutyRoster> rosters;

  const chain::DutyRoster& roster_for(Epoch e) {
    auto it = rosters.find(e.value());
    if (it == rosters.end()) {
      it = rosters.emplace(e.value(),
                           chain::DutyRoster(registry, e, cfg.seed)).first;
    }
    return it->second;
  }

  [[nodiscard]] std::uint32_t proposer_for(Slot s) {
    return roster_for(epoch_of(s))
        .proposer(s.value() % kSlotsPerEpoch)
        .value();
  }

  /// The store index of the view's head, from its justified checkpoint's
  /// block or, while the view lacks that block, from genesis.
  [[nodiscard]] std::uint32_t head_of(View& v, Epoch e) {
    refresh_boost(v);
    const Digest& justified = v.ffg.justified().block;
    if (justified != v.justified_block) {
      v.justified_block = justified;
      v.justified_index = global_tree.index_of(justified);
    }
    const std::uint32_t root =
        v.justified_index && v.blocks.contains(*v.justified_index)
            ? *v.justified_index
            : 0;
    return v.fc.head(root, e);
  }

  std::uint64_t store_payload(std::variant<std::uint32_t, Vote> p) {
    payloads.push_back(std::move(p));
    return payloads.size() - 1;
  }

  void propose(std::uint32_t who, Slot slot) {
    if (slashed_set.contains(who)) return;
    if (is_byz(who) && balancing()) {
      propose_balancing(who, slot);
      return;
    }
    View& v = *views[who];
    const Epoch e = epoch_of(slot);
    const Digest head = global_tree.by_index(head_of(v, e)).id;
    const std::uint32_t b =
        store_block(Block::make(head, slot, ValidatorIndex{who}), -1);
    ingest_block(v, b);
    const auto id = store_payload(b);
    network.broadcast(ValidatorIndex{who}, id);
  }

  /// Balancing proposer equivocation: one block per fork side, built on
  /// that side's head (on a fresh fork both sides share the parent, so
  /// the pair are true siblings), each released immediately to its half
  /// of the honest validators only.  The cross-side copies are withheld
  /// until the epoch boundary, so within the epoch each half extends
  /// and attests its own sibling and the checkpoint votes split.
  void propose_balancing(std::uint32_t who, Slot slot) {
    const Epoch e = epoch_of(slot);
    ++result.equivocating_proposals;
    for (const int side : {0, 1}) {
      View& v = side == 0 ? *views[who] : *byz_alt_views[who - cfg.n_honest];
      const Digest head = global_tree.by_index(head_of(v, e)).id;
      Digest body{};
      body[0] = static_cast<std::uint8_t>(side + 1);
      // The sibling pins its side even on a fresh fork.
      const std::uint32_t b = store_block(
          Block::make(head, slot, ValidatorIndex{who}, body), side);
      ingest_block(v, b);
      const auto id = store_payload(b);
      network.release_at(queue.now() + cfg.release_delay, ValidatorIndex{who},
                         side_audiences[static_cast<std::size_t>(side)], id);
      split_withheld.emplace_back(ValidatorIndex{who}, id, side);
    }
  }

  /// Balancing attester: vote once, from the assigned side's view (no
  /// attestation equivocation — the balancing adversary stays
  /// unslashable), broadcast to everyone.
  void attest_balancing(std::uint32_t who, Slot slot) {
    if (slashed_set.contains(who)) return;
    const int side = static_cast<int>((who - cfg.n_honest) % 2);
    View& v = side == 0 ? *views[who] : *byz_alt_views[who - cfg.n_honest];
    const Vote a = make_attestation(v, who, slot);
    ingest_attestation(v, a);
    const auto id = store_payload(a);
    network.broadcast(ValidatorIndex{who}, id);
  }

  Vote make_attestation(View& v, std::uint32_t who, Slot slot) {
    const Epoch e = epoch_of(slot);
    Vote vote;
    vote.head = head_of(v, e);
    Attestation& a = vote.att;
    a.attester = ValidatorIndex{who};
    a.slot = slot;
    a.head = global_tree.by_index(vote.head).id;
    a.source = v.ffg.justified();
    a.target = global_tree.checkpoint_on_branch(vote.head, e);
    return vote;
  }

  void attest_honest(std::uint32_t who, Slot slot) {
    if (slashed_set.contains(who)) return;
    View& v = *views[who];
    const Vote a = make_attestation(v, who, slot);
    ingest_attestation(v, a);
    const auto id = store_payload(a);
    network.broadcast(ValidatorIndex{who}, id);
  }

  /// Byzantine behaviour: before GST, attest once per branch view and
  /// deliver each attestation only to that branch's region (the paper's
  /// Section 5.2.1 equivocation, hidden by message-delay control); the
  /// withheld equivocations are re-gossiped to everyone at GST.
  void attest_byzantine(std::uint32_t who, Slot slot) {
    if (slashed_set.contains(who)) return;
    if (balancing()) {
      attest_balancing(who, slot);
      return;
    }
    const bool partitioned = queue.now() < network.config().gst;
    if (!partitioned) {
      attest_honest(who, slot);
      return;
    }
    for (const net::Region r : {net::Region::kOne, net::Region::kTwo}) {
      View& v = byz_view_for_region(who, r);
      const Vote a = make_attestation(v, who, slot);
      ingest_attestation(v, a);
      const auto id = store_payload(a);
      byz_withheld.emplace_back(ValidatorIndex{who}, id);
      network.release_at(queue.now() + 0.5, ValidatorIndex{who},
                         region_audiences[r == net::Region::kOne ? 0 : 1],
                         id);
    }
  }

  void process_epoch_boundary(Epoch finished) {
    // The balancing split lapses at the boundary: every withheld
    // cross-side proposal is released, views reconcile, and the
    // adversary must re-equivocate next epoch to keep the fork
    // balanced (blocks only — attestations never equivocated, so
    // nothing here is slashable).
    if (balancing() && !split_withheld.empty()) {
      for (const auto& [from, id, side] : split_withheld) {
        network.release_at(queue.now() + cfg.cross_delay, from,
                           side_audiences[static_cast<std::size_t>(1 - side)],
                           id);
      }
      split_withheld.clear();
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      View& v = *views[i];
      // Re-run the last few epochs to absorb stragglers (votes that
      // crossed the boundary or arrived after GST).
      const std::uint64_t lo =
          finished.value() > 2 ? finished.value() - 2 : 1;
      for (std::uint64_t e = lo; e <= finished.value(); ++e) {
        v.ffg.process_epoch(Epoch{e});
      }
      if (is_byz(i)) {
        View& alt = *byz_alt_views[i - cfg.n_honest];
        for (std::uint64_t e = lo; e <= finished.value(); ++e) {
          alt.ffg.process_epoch(Epoch{e});
        }
      }
      // Report newly finalized checkpoints to the safety monitor.
      const auto fin = v.ffg.finalized();
      if (fin.epoch.value() > last_reported_finalized[i]) {
        last_reported_finalized[i] = fin.epoch.value();
        if (monitor.report(fin)) ++result.safety_violations;
      }
    }
    // Validator 0's leak observation and finality progress.
    const auto fin0 = views[0]->ffg.finalized().epoch.value();
    result.finalized_epoch_trajectory.push_back(fin0);
    const bool leaking =
        finished.value() - fin0 > cfg.spec.min_epochs_to_inactivity_penalty;
    result.leak_observed = result.leak_observed || leaking;
  }

  SlotSimResult run() {
    const std::size_t total_slots = cfg.epochs * kSlotsPerEpoch;
    // Once the partition heals, gossip re-propagates everything — in
    // particular the equivocating attestations the adversary audience-
    // scoped before GST, which is how slashing evidence finally reaches
    // honest validators.
    const SimTime gst = network.config().gst;
    if (gst > 0.0 &&
        gst <= static_cast<double>(total_slots + 1) * kSecondsPerSlot) {
      queue.schedule_at(gst + 0.1, [this] {
        for (const auto& [from, id] : byz_withheld) {
          network.release_at(queue.now() + 0.2, from, everyone, id);
        }
      });
    }
    for (std::size_t s = 1; s <= total_slots; ++s) {
      const Slot slot{s};
      const SimTime t0 = slot_start_time(slot);
      queue.schedule_at(t0, [this, slot] {
        propose(proposer_for(slot), slot);
      });
      queue.schedule_at(t0 + kAttestationOffset, [this, slot] {
        // Committee assignment from the epoch's duty roster.
        const std::uint64_t pos = slot.value() % kSlotsPerEpoch;
        for (const ValidatorIndex v :
             roster_for(epoch_of(slot)).committee(pos)) {
          const std::uint32_t i = v.value();
          if (is_byz(i)) {
            attest_byzantine(i, slot);
          } else {
            attest_honest(i, slot);
          }
        }
      });
      if (slot.next().is_epoch_boundary()) {
        const Epoch finished = epoch_of(slot);
        queue.schedule_at(t0 + kSecondsPerSlot - 0.25,
                          [this, finished] { process_epoch_boundary(finished); });
      }
    }
    queue.run_until(static_cast<double>(total_slots + 2) * kSecondsPerSlot);

    result.finalized_epoch.clear();
    result.justified_epoch.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      result.finalized_epoch.push_back(views[i]->ffg.finalized().epoch.value());
      result.justified_epoch.push_back(views[i]->ffg.justified().epoch.value());
    }
    // Longest run of epoch boundaries without finality progress.
    std::size_t stall = 0;
    std::size_t current = 0;
    std::uint64_t prev_fin = 0;
    for (const std::uint64_t fin : result.finalized_epoch_trajectory) {
      if (fin > prev_fin) {
        prev_fin = fin;
        current = 0;
      } else {
        ++current;
      }
      stall = std::max(stall, current);
    }
    result.finality_stall_epochs = stall;

    result.blocks_seen = views[0]->blocks.size();
    result.messages_delivered = network.messages_delivered();
    result.messages_dropped = network.messages_dropped();
    return result;
  }
};

SlotSim::SlotSim(SlotSimConfig cfg) : impl_(std::make_unique<Impl>(cfg)) {}
SlotSim::~SlotSim() = default;

SlotSimResult SlotSim::run() { return impl_->run(); }

}  // namespace leak::sim
