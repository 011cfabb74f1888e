#include "ldc/runtime/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
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

void Network::exchange_serial(const std::vector<Outbox>& outboxes,
                              const deliver::ByteRule& rule,
                              deliver::RoundTally& t) {
  const auto n = graph_->n();
  MailArena& a = arena_;
  const std::uint64_t ep = a.epoch_;
  auto& lane = a.lane(0, n);
  // Pass 1 counts survivors per destination; pass 2 writes them at their
  // destination's cursor, ascending senders giving ascending inboxes. On
  // a throw the half-filled arena is never exposed: the prologue already
  // bumped the epoch, so no live view reads it.
  deliver::outbox_pass(
      rule, outboxes.data(), 0, n, 0, n, t, a.scratch_,
      [&](NodeId dest) { lane.add_one(dest, ep); },
      [](NodeId, NodeId, const Message&) {});
  a.lay_out(lane, n, ep);
  deliver::own_fill(rule, outboxes.data(), 0, n, 0, n,
                    [&](NodeId dest) -> MailSlot& {
                      return a.slots_[lane.counts[dest]++];
                    });
}

void Network::exchange_parallel(const std::vector<Outbox>& outboxes,
                                const deliver::ByteRule& rule,
                                deliver::RoundTally& t) {
  const auto n = graph_->n();
  MailArena& a = arena_;
  const std::uint64_t ep = a.epoch_;
  // Per-chunk tallies and per-destination count lanes. Chunks are
  // contiguous ascending sender ranges, so concatenating them in chunk
  // order reproduces the serial sender order exactly. Lanes persist in
  // the arena and are epoch-stamped: entries from earlier rounds read as
  // zero, so no O(n·lanes) clearing happens per round.
  const std::size_t lanes = std::min<std::size_t>(pool_->size(), n);
  std::vector<deliver::RoundTally> tallies(lanes);
  for (std::size_t c = 0; c < lanes; ++c) a.lane(c, n);

  // Pass 1 (by sender): the kernel's sender pass per chunk. Exception
  // order matches serial: parallel_for rethrows the lowest chunk = lowest
  // sender, and the exception texts are position-independent.
  pool_->parallel_for(n, [&](std::size_t b, std::size_t e, std::size_t c) {
    MailArena::Lane& lane = a.lanes_[c];
    std::vector<NodeId> scratch;
    deliver::outbox_pass(
        rule, outboxes.data() + b, static_cast<NodeId>(b),
        static_cast<NodeId>(e), 0, n, tallies[c], scratch,
        [&](NodeId dest) { lane.add_one(dest, ep); },
        [](NodeId, NodeId, const Message&) {});
  });

  // Pass 2 (by destination): global CSR offsets from the per-lane counts.
  // 2a computes per-chunk slot totals, a serial scan over the (few) chunks
  // assigns chunk base offsets, then 2b lays out each destination's span
  // and turns the lane entries into absolute write cursors, lane by lane
  // — so lane order within an inbox equals ascending sender order.
  if (a.chunk_total_.size() < lanes) a.chunk_total_.resize(lanes);
  pool_->parallel_for(n, [&](std::size_t b, std::size_t e, std::size_t c) {
    std::uint32_t sum = 0;
    for (std::size_t dest = b; dest < e; ++dest) {
      for (std::size_t l = 0; l < lanes; ++l) {
        sum += a.lanes_[l].at(static_cast<NodeId>(dest), ep);
      }
    }
    a.chunk_total_[c] = sum;
  });
  // parallel_for(n, ...) splits [0, n) the same way on every call with the
  // same pool, so chunk c in 2b covers exactly the range summed in 2a.
  std::uint32_t total = 0;
  for (std::size_t c = 0; c < lanes; ++c) {
    const std::uint32_t sum = a.chunk_total_[c];
    a.chunk_total_[c] = total;
    total += sum;
  }
  if (a.offsets_.size() < n + 1) a.offsets_.resize(n + 1);
  a.offsets_[n] = total;
  if (a.slots_.size() != total) a.slots_.resize(total);
  pool_->parallel_for(n, [&](std::size_t b, std::size_t e, std::size_t c) {
    std::uint32_t cur = a.chunk_total_[c];
    for (std::size_t dest = b; dest < e; ++dest) {
      a.offsets_[dest] = cur;
      for (std::size_t l = 0; l < lanes; ++l) {
        MailArena::Lane& lane = a.lanes_[l];
        const std::uint32_t count = lane.at(static_cast<NodeId>(dest), ep);
        lane.set(static_cast<NodeId>(dest), ep, cur);
        cur += count;
      }
    }
  });

  // Pass 3 (by sender, same chunking): write survivors at the chunk's
  // cursors — disjoint slots, and slot order equals serial insert order.
  pool_->parallel_for(n, [&](std::size_t b, std::size_t e, std::size_t c) {
    MailArena::Lane& lane = a.lanes_[c];
    deliver::own_fill(rule, outboxes.data() + b, static_cast<NodeId>(b),
                      static_cast<NodeId>(e), 0, n,
                      [&](NodeId dest) -> MailSlot& {
                        return a.slots_[lane.counts[dest]++];
                      });
  });

  for (const deliver::RoundTally& chunk : tallies) t.merge(chunk);
}

void Network::debug_check_sorted() const {
#ifndef NDEBUG
  // The ascending-sender invariant that replaced the per-inbox sort: the
  // serial engine walks senders in order, the parallel engine's chunks are
  // contiguous ascending ranges merged in chunk order, the sharded engine
  // fills each inbox walking source shards ascending, and the broadcast
  // fill follows the graph's sorted adjacency.
  if (shards_ != nullptr) {
    for (const auto& st : shards_->states_) {
      const MailArena& a = st->arena;
      for (NodeId lv = 0; lv < st->topo.owned(); ++lv) {
        for (std::uint32_t i = a.offsets_[lv] + 1; i < a.offsets_[lv + 1];
             ++i) {
          assert(a.slots_[i - 1].first < a.slots_[i].first &&
                 "sharded inbox not in ascending sender order");
        }
      }
    }
    return;
  }
  for (NodeId v = 0; v < graph_->n(); ++v) {
    for (std::uint32_t i = arena_.offsets_[v] + 1; i < arena_.offsets_[v + 1];
         ++i) {
      assert(arena_.slots_[i - 1].first < arena_.slots_[i].first &&
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
  debug_check_sorted();
  finish_round(r);
  if (shards_ != nullptr) {
    return RoundMail(&arena_, &shards_->map_, graph_->n());
  }
  return RoundMail(&arena_, graph_->n());
}

RoundMail Network::exchange(const std::vector<Outbox>& outboxes) {
  if (outboxes.size() != graph_->n()) {
    throw std::invalid_argument("Network::exchange: outbox count != n");
  }
  deliver::RoundOpen r = begin_round();
  const deliver::ByteRule rl = rule(r.index);
  if (dist_ != nullptr) {
    dist_->exchange_dist(*this, outboxes, rl, r.tally);
  } else if (shards_ != nullptr) {
    exchange_sharded(outboxes, rl, r.tally);
  } else if (pool_ != nullptr && pool_->size() > 1) {
    exchange_parallel(outboxes, rl, r.tally);
  } else {
    exchange_serial(outboxes, rl, r.tally);
  }
  return seal_round(r);
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

  // Fill (by destination): v's inbox is one shared handle per surviving
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
