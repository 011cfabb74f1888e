#include "ldc/support/bitio.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ldc/support/prf.hpp"

namespace ldc {
namespace {

TEST(BitIo, EmptyWriter) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  BitReader r(w);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitIo, SingleBits) {
  BitWriter w;
  w.write(1, 1);
  w.write(0, 1);
  w.write(1, 1);
  EXPECT_EQ(w.bit_count(), 3u);
  BitReader r(w);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(1), 0u);
  EXPECT_EQ(r.read(1), 1u);
}

TEST(BitIo, FullWord) {
  BitWriter w;
  const std::uint64_t v = 0xdeadbeefcafebabeULL;
  w.write(v, 64);
  BitReader r(w);
  EXPECT_EQ(r.read(64), v);
}

TEST(BitIo, CrossWordBoundary) {
  BitWriter w;
  w.write(0x7f, 7);
  w.write(0x123456789abcdefULL, 60);
  w.write(0x3, 2);
  BitReader r(w);
  EXPECT_EQ(r.read(7), 0x7fu);
  EXPECT_EQ(r.read(60), 0x123456789abcdefULL);
  EXPECT_EQ(r.read(2), 0x3u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitIo, MasksHighBits) {
  BitWriter w;
  w.write(0xff, 4);  // only low 4 bits should land
  w.write(0, 4);
  BitReader r(w);
  EXPECT_EQ(r.read(8), 0x0fu);
}

TEST(BitIo, ZeroBitWriteIsNoop) {
  BitWriter w;
  w.write(123, 0);
  EXPECT_EQ(w.bit_count(), 0u);
}

TEST(BitIo, BoundedRoundTrip) {
  BitWriter w;
  w.write_bounded(0, 0);    // 0 bits
  w.write_bounded(5, 7);    // 3 bits
  w.write_bounded(7, 7);    // 3 bits
  w.write_bounded(8, 8);    // 4 bits
  EXPECT_EQ(w.bit_count(), 10u);
  BitReader r(w);
  EXPECT_EQ(r.read_bounded(0), 0u);
  EXPECT_EQ(r.read_bounded(7), 5u);
  EXPECT_EQ(r.read_bounded(7), 7u);
  EXPECT_EQ(r.read_bounded(8), 8u);
}

TEST(BitIo, VarintRoundTrip) {
  BitWriter w;
  const std::vector<std::uint64_t> values = {0,  1,   2,      3,
                                             63, 64,  12345,  (1ULL << 32),
                                             (1ULL << 63) + 7, ~0ULL};
  for (auto v : values) w.write_varint(v);
  BitReader r(w);
  for (auto v : values) EXPECT_EQ(r.read_varint(), v);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitIo, WordReaderHoldsItsWordAtTheBoundary) {
  // The by-value reader (inline message payloads) against the borrowed
  // one, at widths 0, 1, 63 and 64 — the shifts at the word boundary.
  const std::uint64_t v = 0x8123456789abcdefULL;
  for (const int bits : {0, 1, 63, 64}) {
    BitWriter w;
    w.write(v, bits);
    const std::uint64_t packed = bits == 0 ? 0 : w.words()[0];
    BitReader held(packed, static_cast<std::size_t>(bits));
    BitReader borrowed(w.words().data(), w.bit_count());
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    EXPECT_EQ(held.read(bits), v & mask) << bits;
    EXPECT_EQ(borrowed.read(bits), v & mask) << bits;
    EXPECT_EQ(held.remaining(), 0u) << bits;
    EXPECT_THROW(held.read(1), std::out_of_range) << bits;
  }
  // Two reads split one held word.
  BitReader r(v, 64);
  EXPECT_EQ(r.read(60), v & ((std::uint64_t{1} << 60) - 1));
  EXPECT_EQ(r.read(4), v >> 60);
}

TEST(BitIo, RandomRoundTrip) {
  SplitMix64 rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, int>> written;
    for (int i = 0; i < 100; ++i) {
      const int bits = 1 + static_cast<int>(rng.next_below(64));
      std::uint64_t v = rng.next();
      if (bits < 64) v &= (1ULL << bits) - 1;
      w.write(v, bits);
      written.emplace_back(v, bits);
    }
    BitReader r(w);
    for (const auto& [v, bits] : written) {
      EXPECT_EQ(r.read(bits), v);
    }
  }
}

}  // namespace
}  // namespace ldc
