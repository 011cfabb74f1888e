// The `ldc_shard` worker process: one shard of the distributed engine.
//
// A worker owns one contiguous vertex range of the coordinator's
// partition and is the delivery plane for its masked and faulty broadcast
// and word rounds — the in-process sharded engine's receiver scan over
// the same delivery kernel (runtime/deliver.hpp). Outbox rounds never
// reach it: Network::exchange runs them on the caller's thread under
// every engine. The worker is deliberately stateless across rounds:
// everything a round needs (fault context, transmit masks, word values)
// arrives in the round's frame, and every fault decision it resolves is a
// pure function of (plan seed, round, edge) — which is the whole
// determinism argument (DESIGN.md §12).
//
// I/O is plain blocking reads/writes: the coordinator end is fully
// non-blocking and always drains, so a worker can never wedge the
// protocol by blocking on a write.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ldc/dist/wire.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/storage/mapped_graph.hpp"

namespace ldc::dist {

class ShardWorker {
 public:
  /// Opens (mmaps) the corpus and takes ownership of the connected
  /// socket fd. Throws CorpusError on a bad corpus file.
  ShardWorker(const std::string& corpus_path, int fd);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Sends HELLO, then serves coordinator frames — assign, bcast,
  /// word_sparse, heartbeat — until kShutdown (returns 0) or a fatal
  /// protocol error (logs to stderr, returns 1). No round it serves can
  /// raise an algorithm error: the coordinator charges the CONGEST budget
  /// before any frame is sent.
  int run();

 private:
  void send_frame(FrameKind kind, std::uint64_t round, std::uint32_t dst,
                  std::uint32_t count, std::string_view payload);

  void handle_assign(const Frame& f);
  void handle_bcast(const Frame& f);
  void handle_word_sparse(const Frame& f);

  std::shared_ptr<const storage::MappedGraph> mg_;
  int fd_;
  FrameReader reader_;  ///< persistent: read(2) coalesces frames

  // Assigned at kAssign (re-assignable: a coordinator re-binds per run).
  bool assigned_ = false;
  std::uint32_t shard_ = 0;
  std::uint32_t shards_ = 0;
  std::size_t budget_bits_ = 0;
  bool strict_ = false;
  ShardTopology topo_;
};

}  // namespace ldc::dist
