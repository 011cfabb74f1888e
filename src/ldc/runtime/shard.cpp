// ShardCrew / ShardSet and the Engine::kSharded round bodies.
//
// Each body runs the delivery kernel's receiver scan (deliver.hpp) once
// per shard range on the shard's own worker, writing only shard-owned
// pages. Each receiver's inbox follows its sorted adjacency, so inbox
// bytes, metrics, trace rows and fault decisions are byte-identical to
// kSerial/kParallel. Outbox rounds have no body here: Network::exchange
// runs them serially for every engine.
#include "ldc/runtime/shard.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "ldc/runtime/network.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ldc {

// ---------------------------------------------------------------- crew --

ShardCrew::ShardCrew(std::size_t shards, bool pin) : pin_(pin) {
  errors_.resize(shards);
  workers_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    workers_.emplace_back([this, k] { worker_loop(k); });
  }
}

ShardCrew::~ShardCrew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardCrew::worker_loop(std::size_t k) {
#if defined(__linux__)
  if (pin_) {
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(k % hw), &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }
#endif
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(k);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      errors_[k] = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (--unfinished_ == 0) done_cv_.notify_all();
  }
}

void ShardCrew::run(const std::function<void(std::size_t)>& job) {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    unfinished_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
    job_ = nullptr;
  }
  // Lowest shard = lowest sender range: matches the error order the other
  // engines guarantee.
  for (const auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

std::size_t ShardCrew::default_shard_count() {
  const char* env = std::getenv("LDC_SHARDS");
  if (env == nullptr || *env == '\0') {
    return ThreadPool::default_thread_count();
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || v < 1 ||
      v > static_cast<long long>(kMaxShards)) {
    throw std::invalid_argument(
        "LDC_SHARDS must be an integer in [1, " +
        std::to_string(kMaxShards) + "]; got \"" + env + "\"");
  }
  return static_cast<std::size_t>(v);
}

bool ShardCrew::pin_from_env() {
  const char* env = std::getenv("LDC_PIN");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

// ----------------------------------------------------------- shard set --

ShardSet::ShardSet(const Graph& g, std::size_t shards, bool pin)
    : part_(Partition::degree_balanced(g, shards)),
      states_(part_.shards()),
      crew_(part_.shards(), pin) {
  const std::size_t k = states_.size();
  // Build each shard's state on its own worker so the topology and arena
  // are allocated and touched by the thread that owns them (first-touch
  // NUMA placement).
  crew_.run([&](std::size_t i) {
    auto st = std::make_unique<ShardState>();
    st->topo.build(g, part_.begin(i), part_.end(i));
    states_[i] = std::move(st);
  });
  views_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    ShardState& st = *states_[i];
    views_[i] = ShardView{&st.arena,          st.topo.xadj.data(),
                          st.topo.adj.data(), st.topo.ghosts.data(),
                          st.topo.vbegin,     st.topo.owned()};
  }
  map_ = ShardMap{views_.data(), part_.starts().data(), k};
}

void ShardSet::fold(deliver::RoundTally& t) {
  for (const auto& st : states_) {
    t.merge(st->tally);
    add_traffic(st->tally);
  }
}

// -------------------------------------------------- Network round bodies --

void Network::broadcast_fill_sharded(const std::vector<Message>& msgs,
                                     const deliver::ByteRule& rule,
                                     bool all_live, deliver::RoundTally& t) {
  ShardSet& S = *shards_;
  // The transmit flags live in the master arena (read-only here); each
  // shard's receiver scan writes only its own arena.
  const deliver::ByteFlags sends{arena_.transmits_.data()};
  S.crew_.run([&](std::size_t k) {
    ShardState& st = *S.states_[k];
    MailArena& a = st.arena;
    const NodeId b = st.topo.vbegin;
    const NodeId e = st.topo.vend;
    st.tally = deliver::RoundTally{};
    if (a.offsets_.size() < static_cast<std::size_t>(st.topo.owned()) + 1) {
      a.offsets_.resize(static_cast<std::size_t>(st.topo.owned()) + 1);
    }
    const std::uint32_t total = deliver::survivor_offsets(
        rule, b, e, all_live, sends, st.tally, a.offsets_.data());
    if (a.slots_.size() != total) a.slots_.resize(total);
    MailSlot* slot = a.slots_.data();
    deliver::survivor_fill(rule, b, e, all_live, sends,
                           [&](NodeId u, NodeId v, bool corrupt) {
                             st.tally.cut(u, b, e, msgs[u].bit_count());
                             rule.put(*slot++, u, v, msgs[u], corrupt);
                           });
  });
  S.fold(t);
}

void Network::word_fill_sharded(const std::vector<std::uint64_t>& words,
                                std::size_t bits,
                                const deliver::ByteRule& rule, bool all_live,
                                deliver::RoundTally& t) {
  ShardSet& S = *shards_;
  const deliver::ByteFlags sends{arena_.transmits_.data()};
  S.crew_.run([&](std::size_t k) {
    ShardState& st = *S.states_[k];
    MailArena& a = st.arena;
    const NodeId b = st.topo.vbegin;
    const NodeId e = st.topo.vend;
    const NodeId owned = st.topo.owned();
    st.tally = deliver::RoundTally{};
    if (all_live) {
      // Dense mode, shard-local: owned words indexed by local id plus a
      // snapshot of the halo words. Lanes read ONLY shard-owned pages
      // (words, halo, local CSR), and the snapshot is what pins the
      // ghost-staleness semantics: mutating the caller's words after the
      // exchange cannot leak into this round's view.
      if (a.words_.size() < owned) a.words_.resize(owned);
      std::copy(words.begin() + b, words.begin() + e, a.words_.begin());
      const std::size_t ng = st.topo.ghosts.size();
      if (a.ghost_words_.size() < ng) a.ghost_words_.resize(ng);
      for (std::size_t i = 0; i < ng; ++i) {
        a.ghost_words_[i] = words[st.topo.ghosts[i]];
      }
      st.tally.traffic_messages = st.topo.ghost_edges;
      st.tally.traffic_bits = st.topo.ghost_edges * bits;
      return;
    }
    // Sparse mode: the shard's own CSR of (sender, word) slots over local
    // destinations.
    if (a.offsets_.size() < static_cast<std::size_t>(owned) + 1) {
      a.offsets_.resize(static_cast<std::size_t>(owned) + 1);
    }
    const std::uint32_t total = deliver::survivor_offsets(
        rule, b, e, false, sends, st.tally, a.offsets_.data());
    if (a.word_slots_.size() != total) a.word_slots_.resize(total);
    WordSlot* slot = a.word_slots_.data();
    deliver::survivor_fill(rule, b, e, false, sends,
                           [&](NodeId u, NodeId v, bool corrupt) {
                             st.tally.cut(u, b, e, bits);
                             rule.put(*slot++, u, v, words[u], bits, corrupt);
                           });
  });
  S.fold(t);
}

}  // namespace ldc
