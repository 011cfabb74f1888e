#include "ldc/runtime/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>
#include <string>

#include "ldc/support/math.hpp"

namespace ldc {

void Network::set_engine(Engine engine, std::size_t threads) {
  if (engine == Engine::kDist) {
    if (dist_ == nullptr) {
      throw std::invalid_argument(
          "Network::set_engine: kDist requires an attached backend — call "
          "attach_dist() with a dist::Coordinator instead");
    }
    engine_ = Engine::kDist;
    pool_.reset();
    shards_.reset();
    return;
  }
  dist_ = nullptr;
  engine_ = engine;
  if (engine == Engine::kSerial) {
    pool_.reset();
    shards_.reset();
    return;
  }
  if (engine == Engine::kSharded) {
    pool_.reset();
    std::size_t k =
        threads == 0 ? ShardCrew::default_shard_count() : threads;
    k = std::min(k, ShardCrew::kMaxShards);
    k = std::min<std::size_t>(k, std::max<NodeId>(graph_->n(), 1));
    if (k <= 1) {
      shards_.reset();  // one shard: run the exact serial code path
      return;
    }
    if (shards_ == nullptr || shards_->size() != k) {
      shards_ = std::make_unique<ShardSet>(*graph_, k,
                                           ShardCrew::pin_from_env());
    }
    return;
  }
  shards_.reset();
  const std::size_t t =
      threads == 0 ? ThreadPool::default_thread_count() : threads;
  if (t <= 1) {
    pool_.reset();  // one lane: run the exact serial code path
    return;
  }
  if (pool_ == nullptr || pool_->size() != t) {
    pool_ = std::make_unique<ThreadPool>(t);
  }
}

void Network::attach_dist(DistBackend* backend) {
  if (backend == nullptr) {
    dist_ = nullptr;
    engine_ = Engine::kSerial;
    return;
  }
  // bind() partitions the graph and runs the assign handshake; it throws
  // on failure, leaving this Network on its previous engine.
  backend->bind(*this);
  dist_ = backend;
  engine_ = Engine::kDist;
  pool_.reset();
  shards_.reset();
}

void Network::prepare_round_faults(std::uint64_t round, RoundFaults& rf) {
  const auto n = graph_->n();
  if (crashed_.size() != n) {
    crashed_.assign(n, 0);
    crashed_total_ = 0;
  }
  down_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (crashed_[v] == 0 && crashed_total_ < faults_->max_crashes &&
        faults_->crashes_node(round, v)) {
      crashed_[v] = 1;
      ++crashed_total_;
      ++rf.crashes;
    }
    bool down = crashed_[v] != 0;
    if (!down && faults_->sleeps_node(round, v)) {
      down = true;
      ++rf.sleeps;
    }
    down_[v] = down ? 1 : 0;
  }
  metrics_.node_crashes += rf.crashes;
  metrics_.node_sleeps += rf.sleeps;
}

void Network::debug_check_sorted([[maybe_unused]] const MailArena& a,
                                 [[maybe_unused]] NodeId count) {
#ifndef NDEBUG
  // The ascending-sender invariant that replaced the per-inbox sort:
  // exchange() walks senders in order, and the broadcast fills follow the
  // graph's sorted adjacency.
  for (NodeId v = 0; v < count; ++v) {
    for (std::uint32_t i = a.offsets_[v] + 1; i < a.offsets_[v + 1]; ++i) {
      assert(a.slots_[i - 1].first < a.slots_[i].first &&
             "inbox not in ascending sender order");
    }
  }
#endif
}

void Network::finish_round(deliver::RoundOpen& r) {
  const deliver::RoundTally& t = r.tally;
  metrics_.messages += t.messages;
  metrics_.total_bits += t.total_bits;
  metrics_.max_message_bits = std::max<std::size_t>(
      metrics_.max_message_bits, static_cast<std::size_t>(t.max_message_bits));
  metrics_.congest_violations += t.congest_violations;
  metrics_.messages_dropped += t.dropped;
  metrics_.messages_corrupted += t.corrupted;
  r.faults.dropped = t.dropped;
  r.faults.corrupted = t.corrupted;
  const std::uint64_t wall_ns =
      (deliver::now_ns() - r.t0) + pending_compute_ns_;
  pending_compute_ns_ = 0;
  metrics_.wall_ns += wall_ns;
  if (trace_ != nullptr) {
    trace_->record_round(t.messages, t.total_bits,
                         static_cast<std::size_t>(t.round_max_bits), wall_ns,
                         r.faults);
  }
}

RoundMail Network::seal_round(deliver::RoundOpen& r) {
  const auto n = graph_->n();
  if (shards_ != nullptr) {
    for (const auto& st : shards_->states_) {
      debug_check_sorted(st->arena, st->topo.owned());
    }
    finish_round(r);
    return RoundMail(&arena_, &shards_->map_, n);
  }
  debug_check_sorted(arena_, n);
  finish_round(r);
  return RoundMail(&arena_, n);
}

RoundMail Network::exchange(const std::vector<Outbox>& outboxes) {
  const auto n = graph_->n();
  if (outboxes.size() != n) {
    throw std::invalid_argument("Network::exchange: outbox count != n");
  }
  deliver::RoundOpen r = begin_round();
  const deliver::ByteRule rl = rule(r.index);
  MailArena& a = arena_;
  const std::uint64_t ep = a.epoch_;
  auto& lane = a.lane(n);
  // Pass 1 counts survivors per destination, once per range of the
  // engine's partition so its cut traffic is counted against the same
  // ranges the broadcast shapes use; pass 2 writes the survivors at their
  // destination's cursor, ascending senders giving ascending inboxes. On a
  // throw the half-filled arena is never exposed: the prologue already
  // bumped the epoch, so no live view reads it.
  const NodeId whole[] = {0, n};
  std::span<const NodeId> starts = whole;
  if (dist_ != nullptr) starts = dist_->starts();
  if (shards_ != nullptr) starts = shards_->partition().starts();
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const NodeId b = starts[k];
    deliver::outbox_pass(rl, outboxes.data() + b, b, starts[k + 1], r.tally,
                         a.scratch_,
                         [&](NodeId dest) { lane.add_one(dest, ep); });
  }
  a.lay_out(n, ep);
  deliver::own_fill(rl, outboxes.data(), n, [&](NodeId dest) -> MailSlot& {
    return a.slots_[lane.counts[dest]++];
  });
  if (dist_ != nullptr) {
    dist_->add_traffic(r.tally);
  } else if (shards_ != nullptr) {
    shards_->add_traffic(r.tally);
  }
  debug_check_sorted(a, n);
  finish_round(r);
  return RoundMail(&arena_, n);
}

void Network::broadcast_fill(const std::vector<Message>& msgs,
                             const deliver::ByteRule& rule, bool all_live,
                             deliver::RoundTally& t) {
  const auto n = graph_->n();
  MailArena& a = arena_;
  const deliver::ByteFlags sends{a.transmits_.data()};
  if (a.offsets_.size() < n + 1) a.offsets_.resize(n + 1);
  const std::uint32_t total = deliver::survivor_offsets(
      rule, 0, n, all_live, sends, t, a.offsets_.data());
  if (a.slots_.size() != total) a.slots_.resize(total);

  // Fill (by destination): v's inbox is one message copy per surviving
  // in-neighbor. Parallelizing by destination is race-free: spans are
  // disjoint and all reads are const.
  auto fill = [&](std::size_t b, std::size_t e, std::size_t) {
    MailSlot* slot = a.slots_.data() + a.offsets_[b];
    deliver::survivor_fill(rule, static_cast<NodeId>(b),
                           static_cast<NodeId>(e), all_live, sends,
                           [&](NodeId u, NodeId v, bool corrupt) {
                             rule.put(*slot++, u, v, msgs[u], corrupt);
                           });
  };
  if (pool_ != nullptr && pool_->size() > 1) {
    pool_->parallel_for(n, fill);
  } else {
    fill(0, n, 0);
  }
}

RoundMail Network::exchange_broadcast(const std::vector<Message>& msgs,
                                      const std::vector<bool>* active) {
  const auto n = graph_->n();
  if (msgs.size() != n) {
    throw std::invalid_argument(
        "Network::exchange_broadcast: msgs count " +
        std::to_string(msgs.size()) + " != n " + std::to_string(n));
  }
  if (active != nullptr && active->size() != n) {
    throw std::invalid_argument(
        "Network::exchange_broadcast: active mask size != n");
  }
  deliver::RoundOpen r = begin_round();
  const deliver::ByteRule rl = rule(r.index);
  const bool all_live = deliver::broadcast_senders(
      rl, active, arena_.transmits_,
      [&](NodeId u) { return msgs[u].bit_count(); }, r.tally);
  if (dist_ != nullptr) {
    dist_->broadcast_fill_dist(*this, msgs, rl, all_live, r.tally);
  } else if (shards_ != nullptr) {
    broadcast_fill_sharded(msgs, rl, all_live, r.tally);
  } else {
    broadcast_fill(msgs, rl, all_live, r.tally);
  }
  return seal_round(r);
}

WordMail Network::exchange_broadcast_word(
    const std::vector<std::uint64_t>& words, std::uint64_t bound,
    const std::vector<bool>* active) {
  const auto n = graph_->n();
  if (words.size() != n) {
    throw std::invalid_argument(
        "Network::exchange_broadcast_word: words count != n");
  }
  if (active != nullptr && active->size() != n) {
    throw std::invalid_argument(
        "Network::exchange_broadcast_word: active mask size != n");
  }
  if (bound == std::numeric_limits<std::uint64_t>::max()) {
    throw std::invalid_argument(
        "Network::exchange_broadcast_word: bound must be < 2^64-1 (the "
        "equivalent write_bounded width is ceil_log2(bound+1))");
  }
  deliver::RoundOpen r = begin_round();
  const deliver::ByteRule rl = rule(r.index);
  // Payload width of the round: every live sender transmits exactly the
  // bits write_bounded(word, bound) would pack, so metrics, trace rows,
  // and the strict-CONGEST throw point match the Message path.
  const std::size_t bits = static_cast<std::size_t>(ceil_log2(bound + 1));
  const bool all_live = deliver::broadcast_senders(
      rl, active, arena_.transmits_,
      [&]([[maybe_unused]] NodeId u) {
        assert(words[u] <= bound &&
               "exchange_broadcast_word: live sender's word exceeds bound");
        return bits;
      },
      r.tally);

  if (dist_ != nullptr) {
    // Workers validate and count their halo traffic; the master arena is
    // filled in the serial layout, so the serial-mode view below applies.
    dist_->word_fill_dist(*this, words, bits, rl, all_live, r.tally);
    finish_round(r);
    return WordMail(&arena_, graph_, all_live, n);
  }
  if (shards_ != nullptr) {
    // Per-shard fill: dense rounds snapshot owned + halo words into the
    // shard's arena; masked/faulty rounds build per-shard word CSRs.
    word_fill_sharded(words, bits, rl, all_live, r.tally);
    finish_round(r);
    return WordMail(&arena_, &shards_->map_, all_live, n);
  }

  MailArena& a = arena_;
  if (all_live) {
    // Dense mode: one word per sender; lanes are synthesized from the
    // graph CSR at read time. O(n) work for an O(m) logical round.
    if (a.words_.size() < n) a.words_.resize(n);
    std::copy(words.begin(), words.end(), a.words_.begin());
  } else {
    // Sparse mode: a CSR of (sender, word) slots.
    const deliver::ByteFlags sends{a.transmits_.data()};
    if (a.offsets_.size() < n + 1) a.offsets_.resize(n + 1);
    const std::uint32_t total = deliver::survivor_offsets(
        rl, 0, n, false, sends, r.tally, a.offsets_.data());
    if (a.word_slots_.size() != total) a.word_slots_.resize(total);
    WordSlot* slot = a.word_slots_.data();
    deliver::survivor_fill(rl, 0, n, false, sends,
                           [&](NodeId u, NodeId v, bool corrupt) {
                             rl.put(*slot++, u, v, words[u], bits, corrupt);
                           });
  }
  finish_round(r);
  return WordMail(&arena_, graph_, all_live, n);
}

void Network::run_node_programs(const std::function<void(NodeId)>& fn) {
  const auto n = graph_->n();
  const std::uint64_t t0 = deliver::now_ns();
  if (shards_ != nullptr) {
    // Each shard's worker runs its own range — node state written by fn
    // stays on the pages that worker first-touched. Lowest-shard
    // exceptions win, matching a serial loop's error order.
    ShardSet& S = *shards_;
    S.crew_.run([&](std::size_t k) {
      const ShardState& st = *S.states_[k];
      for (NodeId v = st.topo.vbegin; v < st.topo.vend; ++v) fn(v);
    });
    pending_compute_ns_ += deliver::now_ns() - t0;
    return;
  }
  if (pool_ != nullptr && pool_->size() > 1) {
    pool_->parallel_for(n,
                        [&](std::size_t b, std::size_t e, std::size_t) {
                          for (std::size_t v = b; v < e; ++v) {
                            fn(static_cast<NodeId>(v));
                          }
                        });
  } else {
    for (NodeId v = 0; v < n; ++v) fn(v);
  }
  pending_compute_ns_ += deliver::now_ns() - t0;
}

}  // namespace ldc
