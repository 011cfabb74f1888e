// Sharded single-graph execution: the machinery behind Engine::kSharded.
//
// The graph is split into K contiguous vertex ranges (Partition); shard k
// owns its range plus a read-only ghost halo, holds its OWN MailArena
// (indexed by local destination id), and has its own dedicated worker
// thread in a ShardCrew. Unlike the ThreadPool — where any worker may
// claim any chunk — the worker↔shard binding is fixed for the crew's
// lifetime, which is what makes first-touch NUMA placement work: each
// shard's arena pages, local CSR, and halo snapshots are allocated and
// touched by the thread that will keep reading them (optionally pinned to
// a core via LDC_PIN=1).
//
// The engine bodies are the two broadcast shapes, which are
// receiver-driven: shard k scans its own receivers' sorted adjacency and
// writes only its own arena, so no shard touches another's pages and no
// cross-shard staging exists. Outbox rounds (Network::exchange) run one
// serial body on the caller's thread under every engine — no algorithm
// sends them — with the sender pass split at the shard boundaries only to
// count the cut. The bodies live in shard.cpp as Network member functions
// that run the delivery kernel (deliver.hpp) per shard range; see
// DESIGN.md §11 for the memory-model and determinism argument.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/runtime/deliver.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/runtime/message.hpp"
#include "ldc/runtime/metrics.hpp"

namespace ldc {

/// Cross-shard traffic observed by the sharded engine. Engine-private by
/// design: these counters are NOT part of RunMetrics or the trace, so
/// digests and metrics stay byte-identical across engines; e20 reads them
/// through Network::cross_shard_traffic().
struct ShardTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

/// K persistent workers with a fixed worker↔shard binding. run(job)
/// executes job(k) on worker k for every k and returns after all workers
/// finish (a full barrier); a throwing job is captured and the
/// lowest-shard exception is rethrown, matching the lowest-sender error
/// order of the other engines.
class ShardCrew {
 public:
  /// Spawns `shards` workers. With pin == true each worker k is pinned to
  /// core k mod hardware_concurrency (Linux only; a best-effort hint —
  /// failures are ignored).
  ShardCrew(std::size_t shards, bool pin);
  ~ShardCrew();

  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  std::size_t size() const { return workers_.size(); }

  void run(const std::function<void(std::size_t)>& job);

  /// Shard count to use when set_engine(kSharded, 0) is called: the
  /// LDC_SHARDS environment variable if set — rejected loudly
  /// (std::invalid_argument) when it is not an integer in [1, 1024],
  /// unlike LDC_THREADS' silent fallback, because a typo here silently
  /// changing the execution shape is exactly what the strict parse is for
  /// — else ThreadPool::default_thread_count().
  static std::size_t default_shard_count();

  /// True iff LDC_PIN=1: pin each shard worker to a core.
  static bool pin_from_env();

  static constexpr std::size_t kMaxShards = 1024;

 private:
  void worker_loop(std::size_t k);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t unfinished_ = 0;
  bool stop_ = false;
  bool pin_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

/// Everything shard k owns: its topology (owned range + ghost halo +
/// local CSR), its delivery arena (local destination ids), and its share
/// of the round (merged in shard order). Allocated and first-touched by
/// worker k.
struct ShardState {
  ShardTopology topo;
  MailArena arena;
  deliver::RoundTally tally;
};

/// The Network-owned bundle: partition, per-shard states, the crew, and
/// the routing tables the sharded RoundMail/WordMail views read.
class ShardSet {
 public:
  ShardSet(const Graph& g, std::size_t shards, bool pin);

  std::size_t size() const { return states_.size(); }
  const Partition& partition() const { return part_; }
  const ShardTraffic& traffic() const { return total_traffic_; }

 private:
  friend class Network;

  /// Merges the shards' round tallies into `t` in ascending shard order
  /// and adds their cut traffic to the running total.
  void fold(deliver::RoundTally& t);
  /// Adds the cut traffic of a round counted outside the shards
  /// (Network::exchange) to the running total.
  void add_traffic(const deliver::RoundTally& t) {
    total_traffic_.messages += t.traffic_messages;
    total_traffic_.bits += t.traffic_bits;
  }

  Partition part_;
  std::vector<std::unique_ptr<ShardState>> states_;
  std::vector<ShardView> views_;  ///< stable storage behind map_
  ShardMap map_;
  ShardTraffic total_traffic_;  ///< cumulative across rounds
  ShardCrew crew_;              ///< last: joins before states_ die
};

}  // namespace ldc
