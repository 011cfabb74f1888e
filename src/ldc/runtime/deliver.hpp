// The delivery kernel: the one place where an edge's fate is decided.
//
// In the CONGEST model a round sends at most one message over each edge,
// and what happens to that message is one rule: the sender's outbox is
// validated (unique destinations, neighbours only), the message is charged
// against the bit budget, and it is then lost (dropped in transit, or
// addressed to a down node), delivered corrupted, or delivered clean.
// Every engine — kSerial, kParallel, kSharded, and the kDist worker
// processes — applies that rule through the functions below over a vertex
// range [b, e). The engines differ only in how they split ranges and move
// survivors between them.
//
// Two round shapes drive the kernel, and they are kept as separate
// implementations on purpose: the equivalence suites compare broadcast
// rounds against explicit outboxes, which only checks something while the
// two share no code path.
//  * Sender-driven (exchange): outbox_pass walks senders in ascending
//    order, charging and counting survivors; own_fill writes them. Both
//    run on the caller's thread under every engine (network.hpp): no
//    algorithm sends outbox rounds, so they get no multi-lane body.
//  * Receiver-driven (broadcast, fused word): broadcast_senders charges
//    the senders in bulk; survivor_offsets and survivor_fill walk each
//    receiver's sorted adjacency.
//
// Fault decisions are pure in (plan seed, round, edge), so a counting pass
// and a writing pass resolve them identically without sharing state. The
// per-range passes are templates on whether the round is fault-free and
// unmasked, chosen once per range, so a fault-free scan carries no
// per-edge fault test.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/fault.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/runtime/message.hpp"
#include "ldc/runtime/metrics.hpp"
#include "ldc/runtime/trace.hpp"

namespace ldc {

/// A message over the CONGEST bit budget on a strict Network.
class CongestViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace deliver {

/// One sender's messages of a round (Network::Outbox).
using Outbox = std::vector<MailSlot>;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One range's share of a round: CONGEST accounting, fault events, and
/// the traffic that crossed the range boundary (sharded engines only).
struct RoundTally {
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;
  std::uint64_t congest_violations = 0;
  std::uint64_t round_max_bits = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t traffic_messages = 0;
  std::uint64_t traffic_bits = 0;

  /// Folds another range in. Sums and maxes only, so merging ranges in
  /// ascending order yields the serial totals whatever the boundaries.
  void merge(const RoundTally& o) {
    messages += o.messages;
    total_bits += o.total_bits;
    max_message_bits = std::max(max_message_bits, o.max_message_bits);
    congest_violations += o.congest_violations;
    round_max_bits = std::max(round_max_bits, o.round_max_bits);
    dropped += o.dropped;
    corrupted += o.corrupted;
    traffic_messages += o.traffic_messages;
    traffic_bits += o.traffic_bits;
  }

  /// Counts a message of `bits` bits as cut traffic when its far end x —
  /// the sender for a receiving range, the destination for a sending one
  /// — lies outside the range [b, e).
  void cut(NodeId x, NodeId b, NodeId e, std::uint64_t bits) {
    if (x < b || x >= e) {
      ++traffic_messages;
      traffic_bits += bits;
    }
  }
};

/// The round's CONGEST budget; bits == 0 is the LOCAL model.
struct Budget {
  std::size_t bits = 0;
  bool strict = false;
};

/// The CONGEST rule: charges `count` messages of `bits` bits each. Over
/// budget, each counts as a violation, or the first throws in strict mode.
inline void charge(RoundTally& t, const Budget& budget, std::size_t bits,
                   std::uint64_t count) {
  if (budget.bits != 0 && bits > budget.bits) {
    if (budget.strict) {
      throw CongestViolation("message of " + std::to_string(bits) +
                             " bits exceeds CONGEST budget of " +
                             std::to_string(budget.bits));
    }
    t.congest_violations += count;
  }
  t.messages += count;
  t.total_bits += count * bits;
  t.max_message_bits = std::max<std::uint64_t>(t.max_message_bits, bits);
  t.round_max_bits = std::max<std::uint64_t>(t.round_max_bits, bits);
}

/// A per-node flag kept as one byte per node (Network's down and transmit
/// vectors).
struct ByteFlags {
  const char* bytes;
  bool operator()(NodeId v) const { return bytes[v] != 0; }
};

/// Everything the per-edge rule reads in one round. `down` is any
/// NodeId -> bool accessor: ByteFlags in-process, the frame's bitmap in
/// ldc_shard.
template <class Down>
struct Rule {
  const Graph& g;
  Budget budget;
  const FaultPlan* plan;  ///< nullptr: the round is fault-free
  Down down;              ///< crashed or asleep this round
  std::uint64_t round;

  /// u -> v is lost: v is down, or the plan drops it in transit.
  bool lost(NodeId u, NodeId v, bool v_down) const {
    return v_down || plan->drops_message(round, u, v);
  }
  bool corrupts(NodeId u, NodeId v) const {
    return plan->corrupts_message(round, u, v);
  }

  /// Delivers u's message into v's slot. Corruption flips a bit of the
  /// slot's own copy (copy-on-write), never the sender's payload.
  void put(MailSlot& slot, NodeId u, NodeId v, const Message& m,
           bool corrupt) const {
    slot.first = u;
    slot.second = m;
    if (corrupt) plan->corrupt_payload(round, u, v, slot.second);
  }
  void put(WordSlot& slot, NodeId u, NodeId v, std::uint64_t word,
           std::size_t bits, bool corrupt) const {
    slot.sender = u;
    slot.value = word;
    if (corrupt) plan->corrupt_word(round, u, v, slot.value, bits);
  }
};

/// The rule as the in-process engines hold it.
using ByteRule = Rule<ByteFlags>;

// ------------------------------------------------------ the round frame --

/// A round between its prologue and its epilogue.
struct RoundOpen {
  std::uint64_t index = 0;  ///< round number; keys the fault schedule
  RoundFaults faults;       ///< crash/sleep events; the tally adds the rest
  std::uint64_t t0 = 0;     ///< clock when the prologue finished
  RoundTally tally;         ///< the whole round, merged in range order
};

/// The prologue of every round shape: the round-boundary hook (which may
/// throw, aborting the round before anything is accounted), the epoch bump
/// that invalidates earlier views before the arena is touched, the round
/// count, the node fault schedule, and the clock. The round index is
/// metrics().rounds, so silent rounds shift it: a plan addresses "the
/// k-th round of the run", not "the k-th exchange".
template <class PrepareFaults>
RoundOpen begin_round(RunMetrics& m, std::uint64_t& epoch,
                      const std::function<void(std::uint64_t)>& hook,
                      bool faulty, PrepareFaults&& prepare_faults) {
  if (hook) hook(m.rounds);
  ++epoch;
  RoundOpen r;
  r.index = m.rounds++;
  if (faulty) prepare_faults(r.index, r.faults);
  r.t0 = now_ns();
  return r;
}

// ------------------------------------------ sender-driven (outboxes) --

namespace detail {

inline void check_unique_destinations(const Outbox& outbox,
                                      std::vector<NodeId>& scratch) {
  if (outbox.size() < 2) return;
  scratch.clear();
  for (const auto& [dest, msg] : outbox) scratch.push_back(dest);
  std::sort(scratch.begin(), scratch.end());
  if (std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end()) {
    throw std::invalid_argument(
        "Network::exchange: duplicate destination in a sender's outbox");
  }
}

template <bool kFaulty, class Down, class Survivor>
void outbox_pass(const Rule<Down>& r, const Outbox* out, NodeId b, NodeId e,
                 RoundTally& t, std::vector<NodeId>& scratch,
                 Survivor& survivor) {
  for (NodeId u = b; u < e; ++u) {
    const Outbox& outbox = out[u - b];
    check_unique_destinations(outbox, scratch);
    const bool sender_down = kFaulty && r.down(u);
    for (const auto& [dest, msg] : outbox) {
      if (!r.g.has_edge(u, dest)) {
        throw std::invalid_argument(
            "Network::exchange: message to non-neighbor");
      }
      if (sender_down) continue;  // suppressed: never transmitted
      const std::size_t bits = msg.bit_count();
      charge(t, r.budget, bits, 1);
      // Cut traffic is paid even if the edge drops it.
      t.cut(dest, b, e, bits);
      if constexpr (kFaulty) {
        if (r.lost(u, dest, r.down(dest))) {
          ++t.dropped;
          continue;
        }
        if (r.corrupts(u, dest)) ++t.corrupted;
      }
      survivor(dest);
    }
  }
}

template <bool kFaulty, class Down, class SlotFor>
void own_fill(const Rule<Down>& r, const Outbox* out, NodeId n,
              SlotFor& slot_for) {
  for (NodeId u = 0; u < n; ++u) {
    if (kFaulty && r.down(u)) continue;
    for (const auto& [dest, msg] : out[u]) {
      if constexpr (kFaulty) {
        if (r.lost(u, dest, r.down(dest))) continue;
      }
      r.put(slot_for(dest), u, dest, msg, kFaulty && r.corrupts(u, dest));
    }
  }
}

}  // namespace detail

/// Sender pass over senders [b, e), in ascending order; out[u - b] is
/// sender u's outbox. Per sender: the duplicate-destination check, before
/// any of its messages is looked at. Per message: the neighbour check
/// (contract violations throw even from a down sender), the CONGEST charge
/// (a down sender transmits nothing and pays nothing), the cut count of a
/// destination outside [b, e) — before the drop, since the sender paid for
/// it — and the edge's fate; survivor(dest) is called per survivor. Throws
/// surface at the first offending sender and message in node order.
template <class Down, class Survivor>
void outbox_pass(const Rule<Down>& r, const Outbox* out, NodeId b, NodeId e,
                 RoundTally& t, std::vector<NodeId>& scratch,
                 Survivor&& survivor) {
  if (r.plan != nullptr) {
    detail::outbox_pass<true>(r, out, b, e, t, scratch, survivor);
  } else {
    detail::outbox_pass<false>(r, out, b, e, t, scratch, survivor);
  }
}

/// The write pass matching outbox_pass: re-walks all n senders in
/// ascending order and writes each survivor — re-resolving the pure fates
/// outbox_pass counted — at slot_for(dest), the slot the next survivor
/// into dest goes to. Ascending senders give ascending inboxes.
template <class Down, class SlotFor>
void own_fill(const Rule<Down>& r, const Outbox* out, NodeId n,
              SlotFor&& slot_for) {
  if (r.plan != nullptr) {
    detail::own_fill<true>(r, out, n, slot_for);
  } else {
    detail::own_fill<false>(r, out, n, slot_for);
  }
}

// ------------------------------- receiver-driven (broadcast, word) --

namespace detail {

template <bool kAllLive, class Down, class BitsOf>
void broadcast_senders(const Rule<Down>& r, const std::vector<bool>* active,
                       std::vector<char>& transmits, BitsOf& bits_of,
                       RoundTally& t) {
  const NodeId n = r.g.n();
  if (!kAllLive) transmits.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    if constexpr (!kAllLive) {
      const bool sends = (active == nullptr || (*active)[u]) &&
                         !(r.plan != nullptr && r.down(u));
      transmits[u] = sends ? 1 : 0;
      if (!sends) continue;
    }
    const std::size_t deg = r.g.degree(u);
    if (deg != 0) charge(t, r.budget, bits_of(u), deg);
  }
}

/// Receivers [b, e) in order, each receiver's adjacency in order:
/// row(v) before v's edges, then emit(u, v, corrupt) per survivor.
/// `count` (nullable) receives the drop and corruption events.
template <bool kAllLive, bool kFaulty, class Down, class Sends, class Row,
          class Emit>
void scan(const Rule<Down>& r, NodeId b, NodeId e, const Sends& sends,
          RoundTally* count, Row& row, Emit& emit) {
  for (NodeId v = b; v < e; ++v) {
    row(v);
    const bool receiver_down = kFaulty && r.down(v);
    for (NodeId u : r.g.neighbors(v)) {
      if (!kAllLive && !sends(u)) continue;
      bool corrupt = false;
      if constexpr (kFaulty) {
        if (r.lost(u, v, receiver_down)) {
          if (count != nullptr) ++count->dropped;
          continue;
        }
        corrupt = r.corrupts(u, v);
        if (corrupt && count != nullptr) ++count->corrupted;
      }
      emit(u, v, corrupt);
    }
  }
}

}  // namespace detail

/// The sender side of a broadcast round. Marks who transmits — active
/// senders (all, when `active` is null) that are not down — in
/// `transmits`, one byte per node, and charges each transmitter u
/// degree(u) messages of bits_of(u) bits in bulk, in ascending order, so a
/// strict violation throws at the same sender as per-message accounting
/// would. Returns all_live: no mask and no faults, so everyone transmits
/// and `transmits` is left untouched.
template <class Down, class BitsOf>
bool broadcast_senders(const Rule<Down>& r, const std::vector<bool>* active,
                       std::vector<char>& transmits, BitsOf&& bits_of,
                       RoundTally& t) {
  const bool all_live = active == nullptr && r.plan == nullptr;
  RoundTally local;  // register-friendly accumulator for the n-long walk
  if (all_live) {
    detail::broadcast_senders<true>(r, active, transmits, bits_of, local);
  } else {
    detail::broadcast_senders<false>(r, active, transmits, bits_of, local);
  }
  t.merge(local);
  return all_live;
}

/// Counting pass over receivers [b, e): offsets[v - b] is where v's
/// survivors start and the return value (also stored at offsets[e - b])
/// is their total. Each transmitted edge's drop or corruption is tallied
/// once, here. all_live: every edge survives, so the offsets are the
/// degree prefix sums and no edge is visited.
template <class Down, class Sends>
std::uint32_t survivor_offsets(const Rule<Down>& r, NodeId b, NodeId e,
                               bool all_live, const Sends& sends,
                               RoundTally& t, std::uint32_t* offsets) {
  std::uint32_t total = 0;
  if (all_live) {
    for (NodeId v = b; v < e; ++v) {
      offsets[v - b] = total;
      total += r.g.degree(v);
    }
  } else {
    auto row = [&](NodeId v) { offsets[v - b] = total; };
    auto emit = [&](NodeId, NodeId, bool) { ++total; };
    if (r.plan != nullptr) {
      detail::scan<false, true>(r, b, e, sends, &t, row, emit);
    } else {
      detail::scan<false, false>(r, b, e, sends, &t, row, emit);
    }
  }
  offsets[e - b] = total;
  return total;
}

/// Fill pass matching survivor_offsets: emit(u, v, corrupt) for every
/// survivor u -> v, receivers ascending and each inbox in adjacency order
/// — the graph stores sorted adjacency, so ascending sender order.
template <class Down, class Sends, class Emit>
void survivor_fill(const Rule<Down>& r, NodeId b, NodeId e, bool all_live,
                   const Sends& sends, Emit&& emit) {
  auto row = [](NodeId) {};
  if (all_live) {
    detail::scan<true, false>(r, b, e, sends, nullptr, row, emit);
  } else if (r.plan != nullptr) {
    detail::scan<false, true>(r, b, e, sends, nullptr, row, emit);
  } else {
    detail::scan<false, false>(r, b, e, sends, nullptr, row, emit);
  }
}

}  // namespace deliver
}  // namespace ldc
