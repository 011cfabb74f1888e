// One budget-straddling round per round shape, shared by the engine
// equivalence suites: every engine must charge CONGEST accounting the same
// way for explicit outboxes, Message broadcasts and fused word broadcasts.
#pragma once

#include <cstdint>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/support/bitio.hpp"

namespace ldc::congest_rounds {

enum class Shape { kOutboxes, kBroadcast, kWord };
inline constexpr Shape kShapes[] = {Shape::kOutboxes, Shape::kBroadcast,
                                    Shape::kWord};

inline const char* name(Shape shape) {
  return shape == Shape::kOutboxes    ? "outboxes"
         : shape == Shape::kBroadcast ? "broadcast"
                                      : "word";
}

/// Every node sends its id to all neighbours, 8 bits wide from even nodes
/// and 16 bits from odd ones. A word round has one width for all senders,
/// so that shape runs the even senders, then the odd ones.
inline void run(Network& net, Shape shape) {
  const Graph& g = net.graph();
  auto width = [](NodeId v) { return v % 2 == 0 ? 8 : 16; };
  std::vector<Message> msgs(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    BitWriter w;
    w.write(v, width(v));
    msgs[v] = Message::from(w);
  }
  if (shape == Shape::kOutboxes) {
    std::vector<Network::Outbox> out(g.n());
    for (NodeId u = 0; u < g.n(); ++u) {
      for (NodeId v : g.neighbors(u)) out[u].emplace_back(v, msgs[u]);
    }
    net.exchange(out);
  } else if (shape == Shape::kBroadcast) {
    net.exchange_broadcast(msgs);
  } else {
    std::vector<std::uint64_t> words(g.n());
    std::vector<bool> even(g.n());
    std::vector<bool> odd(g.n());
    for (NodeId v = 0; v < g.n(); ++v) {
      words[v] = v;
      even[v] = width(v) == 8;
      odd[v] = !even[v];
    }
    net.exchange_broadcast_word(words, 255, &even);
    net.exchange_broadcast_word(words, 65535, &odd);
  }
}

}  // namespace ldc::congest_rounds
