// ShardWorker: the per-process delivery plane of the distributed engine.
//
// The round bodies apply the same delivery kernel (runtime/deliver.hpp)
// as the in-process engines, over the worker's own vertex range: masked
// or faulty broadcast and word rounds are the kernel's receiver scan.
// Where the in-process sharded engine reads shared memory, this one reads
// a decoded frame; the fate of every edge is decided by the same code,
// which is what makes the cross-engine digest equality hold.
#include "ldc/dist/worker.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "ldc/runtime/network.hpp"

namespace ldc::dist {
namespace {

bool bitmap_bit(std::string_view bits, NodeId v) {
  return (static_cast<std::uint8_t>(bits[v >> 3]) >> (v & 7)) & 1u;
}

/// The round's per-edge rule over a decoded fault context.
auto make_rule(const Graph& g, std::size_t budget_bits, bool strict,
               const FaultCtx& ctx, std::uint64_t round) {
  return deliver::Rule{g, deliver::Budget{budget_bits, strict},
                       ctx.faulty ? &ctx.plan : nullptr,
                       [&ctx](NodeId v) { return ctx.down_bit(v); }, round};
}

}  // namespace

ShardWorker::ShardWorker(const std::string& corpus_path, int fd)
    : mg_(storage::MappedGraph::open(corpus_path, /*verify_content=*/true)),
      fd_(fd) {}

ShardWorker::~ShardWorker() {
  if (fd_ >= 0) ::close(fd_);
}

void ShardWorker::send_frame(FrameKind kind, std::uint64_t round,
                             std::uint32_t dst, std::uint32_t count,
                             std::string_view payload) {
  write_all_fd(fd_, encode_frame(kind, round, shard_, dst, count, payload),
               "ldc_shard");
}

int ShardWorker::run() {
  // HELLO: the digest handshake. The coordinator refuses any worker whose
  // corpus content digest differs from its own (AttachError), so a shard
  // can never silently run against a different graph.
  {
    PayloadWriter w;
    w.u64(mg_->meta().content_digest);
    w.u32(mg_->graph().n());
    w.u64(mg_->meta().adj_entries);
    send_frame(FrameKind::kHello, 0, 0, 0, w.take());
  }
  try {
    for (;;) {
      std::optional<Frame> f = read_frame_fd(fd_, reader_);
      if (!f) return 0;  // coordinator went away cleanly
      switch (f->header.kind) {
        case FrameKind::kAssign:
          handle_assign(*f);
          break;
        case FrameKind::kBcast:
          handle_bcast(*f);
          break;
        case FrameKind::kWordSparse:
          handle_word_sparse(*f);
          break;
        case FrameKind::kHeartbeat:
          send_frame(FrameKind::kHeartbeat, f->header.round, 0, 0, {});
          break;
        case FrameKind::kShutdown:
          return 0;
        default:
          throw FrameError(std::string("ldc_shard: unexpected ") +
                           frame_kind_name(f->header.kind) + " frame");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_shard[%u]: fatal: %s\n", shard_, e.what());
    return 1;
  }
}

void ShardWorker::handle_assign(const Frame& f) {
  PayloadReader r(f.payload, "assign");
  shard_ = r.u32();
  shards_ = r.u32();
  budget_bits_ = static_cast<std::size_t>(r.u64());
  strict_ = r.u8() != 0;
  if (shards_ == 0 || shard_ >= shards_ || shards_ > kMaxDistWorkers) {
    throw FrameError("assign: bad shard index " + std::to_string(shard_) +
                     " of " + std::to_string(shards_));
  }
  std::vector<NodeId> starts(shards_ + 1);
  for (NodeId& s : starts) s = r.u32();
  r.expect_end();
  const Graph& g = mg_->graph();
  if (starts.front() != 0 || starts.back() != g.n()) {
    throw FrameError("assign: partition does not cover [0, n)");
  }
  topo_ = ShardTopology{};
  topo_.build(g, starts[shard_], starts[shard_ + 1]);
  assigned_ = true;
  PayloadWriter w;
  w.u64(topo_.ghost_edges);
  w.u64(topo_.ghosts.size());
  send_frame(FrameKind::kAssignAck, f.header.round, 0, shard_, w.take());
}

void ShardWorker::handle_bcast(const Frame& f) {
  if (!assigned_) throw FrameError("bcast: worker not assigned");
  const Graph& g = mg_->graph();
  const NodeId b = topo_.vbegin;
  const NodeId e = topo_.vend;
  const NodeId owned = topo_.owned();
  const std::uint64_t round = f.header.round;

  PayloadReader r(f.payload, "bcast");
  const FaultCtx ctx = decode_fault_ctx(r, g.n());
  const std::string_view transmits = r.bytes((g.n() + 7) / 8);
  r.expect_end();
  const auto rule = make_rule(g, budget_bits_, strict_, ctx, round);
  const auto sends = [transmits](NodeId u) { return bitmap_bit(transmits, u); };

  // The kernel's receiver scan over the owned range. The coordinator
  // rebuilds the payload slots (it holds the messages), so only the
  // surviving sender ids travel back.
  deliver::RoundTally t;
  std::vector<std::uint32_t> offsets(static_cast<std::size_t>(owned) + 1);
  std::vector<NodeId> senders(
      deliver::survivor_offsets(rule, b, e, false, sends, t, offsets.data()));
  NodeId* id = senders.data();
  deliver::survivor_fill(rule, b, e, false, sends,
                         [&](NodeId u, NodeId, bool) { *id++ = u; });
  const std::uint32_t total = offsets[owned];

  PayloadWriter w;
  w.u64(t.dropped);
  w.u64(t.corrupted);
  for (std::uint32_t off : offsets) w.u32(off);
  for (NodeId u : senders) w.u32(u);
  send_frame(FrameKind::kInboxIds, round, 0, total, w.take());
}

void ShardWorker::handle_word_sparse(const Frame& f) {
  if (!assigned_) throw FrameError("word_sparse: worker not assigned");
  const Graph& g = mg_->graph();
  const NodeId b = topo_.vbegin;
  const NodeId e = topo_.vend;
  const NodeId owned = topo_.owned();
  const std::uint64_t round = f.header.round;

  PayloadReader r(f.payload, "word_sparse");
  const FaultCtx ctx = decode_fault_ctx(r, g.n());
  const std::string_view transmits = r.bytes((g.n() + 7) / 8);
  const std::size_t bits = r.u32();
  std::vector<std::uint64_t> owned_words(owned);
  for (NodeId lv = 0; lv < owned; ++lv) owned_words[lv] = r.u64();
  std::vector<std::uint64_t> ghost_words(topo_.ghosts.size());
  for (std::size_t i = 0; i < ghost_words.size(); ++i) {
    ghost_words[i] = r.u64();
  }
  r.expect_end();
  const auto rule = make_rule(g, budget_bits_, strict_, ctx, round);
  const auto sends = [transmits](NodeId u) { return bitmap_bit(transmits, u); };

  // A sender delivering to an owned destination is either owned or a
  // ghost; the halo words shipped above cover exactly the latter.
  auto word_of = [&](NodeId u) -> std::uint64_t {
    if (u >= b && u < e) return owned_words[u - b];
    const auto it =
        std::lower_bound(topo_.ghosts.begin(), topo_.ghosts.end(), u);
    return ghost_words[static_cast<std::size_t>(it - topo_.ghosts.begin())];
  };

  // The kernel's receiver scan, as in word_fill_sharded's sparse path:
  // cut traffic counted per delivered out-of-range slot.
  deliver::RoundTally t;
  std::vector<std::uint32_t> offsets(static_cast<std::size_t>(owned) + 1);
  std::vector<WordSlot> slots(
      deliver::survivor_offsets(rule, b, e, false, sends, t, offsets.data()));
  WordSlot* slot = slots.data();
  deliver::survivor_fill(rule, b, e, false, sends,
                         [&](NodeId u, NodeId v, bool corrupt) {
                           t.cut(u, b, e, bits);
                           rule.put(*slot++, u, v, word_of(u), bits, corrupt);
                         });
  const std::uint32_t total = offsets[owned];

  PayloadWriter w;
  w.u64(t.dropped);
  w.u64(t.corrupted);
  w.u64(t.traffic_messages);
  w.u64(t.traffic_bits);
  for (std::uint32_t off : offsets) w.u32(off);
  for (const WordSlot& s : slots) {
    w.u32(s.sender);
    w.u64(s.value);
  }
  send_frame(FrameKind::kInboxWords, round, 0, total, w.take());
}

}  // namespace ldc::dist
