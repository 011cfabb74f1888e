// A network message: a bit payload with value semantics.
//
// The paper's CONGEST algorithms send O(log n)-bit messages, and nearly
// every round of this repository sends a handful of bits (a color, a class
// index, a commit flag). So a payload of at most 64 bits is held inside
// the Message by value: copying it — into an inbox slot, across a
// broadcast fan-out of Delta neighbors, between algorithm-side buffers —
// copies one word, and Message::from() allocates nothing. Only a longer
// payload lives in a heap block shared by every copy, with an atomic
// refcount so the parallel engine's lanes may copy and drop handles
// concurrently. Keeping small payloads out of that block matters beyond
// the block itself: once a process has started a thread, every refcount
// touch is a locked instruction and malloc leaves its single-thread path,
// and a process that serves or benchmarks always has threads.
//
// sizeof(Message) is 16 bytes: the bit count plus one word that is either
// the inline payload or the block pointer.
//
// Payloads are logically immutable after Message::from(); the only
// mutation path is flip_bit() (fault-injection corruption). It flips only
// this handle's bit: an inline word is this handle's own, and a shared
// block is cloned before the flip (copy-on-write), so corrupting one
// delivered copy can never alias the sender's message or sibling
// deliveries. Mutating one *handle* from two threads is a race on the
// handle itself, exactly as for any other value type.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldc/support/bitio.hpp"

namespace ldc {

class Message {
 public:
  /// Longest payload held by value.
  static constexpr std::size_t kInlineBits = 64;

  Message() = default;
  Message(const Message& o) noexcept : bits_(o.bits_), p_(o.p_) { retain(); }
  Message(Message&& o) noexcept : bits_(o.bits_), p_(o.p_) { o.reset(); }
  Message& operator=(const Message& o) noexcept {
    o.retain();  // before release(): self-assignment keeps the block alive
    release();
    bits_ = o.bits_;
    p_ = o.p_;
    return *this;
  }
  Message& operator=(Message&& o) noexcept {
    if (this != &o) {
      release();
      bits_ = o.bits_;
      p_ = o.p_;
      o.reset();
    }
    return *this;
  }
  ~Message() { release(); }

  /// Captures the writer's payload: by value up to kInlineBits, else in
  /// one shared block that every copy of the returned Message refers to.
  static Message from(const BitWriter& w) {
    Message m;
    m.bits_ = w.bit_count();
    if (m.bits_ == 0) return m;
    if (m.is_inline()) {
      m.p_.word = w.words()[0];
    } else {
      m.p_.block = new Block{{1}, w.words()};
    }
    return m;
  }

  /// A reader over the payload. An inline payload is copied into the
  /// reader, so it stays readable after this Message is gone; a reader
  /// over a shared block needs some handle onto that block to outlive it.
  BitReader reader() const {
    if (is_inline()) return BitReader(p_.word, bits_);
    return BitReader(p_.block->words.data(), bits_);
  }

  std::size_t bit_count() const { return bits_; }
  bool empty() const { return bits_ == 0; }

  /// True when both handles refer to one shared heap block (payloads of
  /// more than kInlineBits bits; inline and empty payloads share nothing).
  bool shares_payload(const Message& other) const {
    return !is_inline() && !other.is_inline() && p_.block == other.p_.block;
  }

  /// Flips payload bit `pos`; throws std::out_of_range when
  /// pos >= bit_count() (a silent flip would corrupt adjacent heap words).
  /// Fault-injection support: the runtime's corruption faults alter
  /// payloads while keeping the exact bit length (so CONGEST accounting is
  /// unaffected). Only this handle observes the flip: an inline word is its
  /// own, and a block shared with other handles is cloned first.
  void flip_bit(std::size_t pos) {
    if (pos >= bits_) {
      throw std::out_of_range("Message::flip_bit: bit position " +
                              std::to_string(pos) + " >= bit count " +
                              std::to_string(bits_));
    }
    const std::uint64_t mask = std::uint64_t{1} << (pos % 64);
    if (is_inline()) {
      p_.word ^= mask;
      return;
    }
    if (p_.block->refs.load(std::memory_order_acquire) != 1) {
      Block* own = new Block{{1}, p_.block->words};
      release();
      p_.block = own;
    }
    p_.block->words[pos / 64] ^= mask;
  }

 private:
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::vector<std::uint64_t> words;
  };
  /// The inline payload word, or the shared block; bits_ says which.
  union Payload {
    std::uint64_t word;
    Block* block;
  };

  bool is_inline() const { return bits_ <= kInlineBits; }
  void retain() const {
    if (!is_inline()) p_.block->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (!is_inline() &&
        p_.block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete p_.block;
    }
  }
  void reset() {
    bits_ = 0;
    p_.word = 0;
  }

  std::size_t bits_ = 0;
  Payload p_{0};
};

static_assert(sizeof(Message) == 16, "bit count + payload word");

}  // namespace ldc
