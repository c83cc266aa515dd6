#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "util/bits.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fixed_vec.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "writeall/layout.hpp"

namespace rfsp {
namespace {

// --- bits -------------------------------------------------------------------

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Bits, CeilPow2) {
  EXPECT_EQ(ceil_pow2(0), 1u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(4), 4u);
  EXPECT_EQ(ceil_pow2(1000), 1024u);
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1ull << 50), 50u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 3), 1u);
  EXPECT_EQ(ceil_div(3, 3), 1u);
  EXPECT_EQ(ceil_div(4, 3), 2u);
}

TEST(Bits, MsbBit) {
  // 0b101 in a 3-bit word: bit 0 (MSB) = 1, bit 1 = 0, bit 2 = 1.
  EXPECT_TRUE(msb_bit(0b101, 0, 3));
  EXPECT_FALSE(msb_bit(0b101, 1, 3));
  EXPECT_TRUE(msb_bit(0b101, 2, 3));
}

// --- FixedVec ----------------------------------------------------------------

TEST(FixedVec, PushAndIterate) {
  FixedVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(7);
  v.push_back(8);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[1], 8);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 15);
}

TEST(FixedVec, OverflowThrows) {
  FixedVec<int, 2> v{1, 2};
  EXPECT_THROW(v.push_back(3), std::logic_error);
}

TEST(FixedVec, OutOfRangeIndexThrows) {
  FixedVec<int, 2> v{1};
  EXPECT_THROW((void)v[1], std::logic_error);
}

TEST(FixedVec, Clear) {
  FixedVec<int, 2> v{1, 2};
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(9);
  EXPECT_EQ(v[0], 9);
}

// --- crc32 -------------------------------------------------------------------

// The standard CRC-32 check value, and chaining across a split at every
// offset (the sliced loop and the byte tail must agree).
TEST(Crc32, MatchesCheckValueAndChains) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  const std::string text = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(text), 0x414FA339u);
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view v(text);
    EXPECT_EQ(crc32(v.substr(cut), crc32(v.substr(0, cut))), crc32(text));
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, FirstHitDrawsWhatRepeatedChanceDraws) {
  // n trials run one at a time through chance(p) and in chunks through
  // first_hit: the hit positions and the generator state must agree.
  // uniform() < p  <=>  (next() >> 11) < ceil(p * 2^53) at the edges too.
  constexpr std::size_t kN = 4096;
  for (const double p :
       {0x1.0p-53, 0x1.8p-53, 0.02, 0.5, 1 - 0x1.0p-53, 0.0, 1.0}) {
    const Rng::Threshold t(p);
    Rng stepped(9), skipping(9);
    std::vector<std::size_t> want, got;
    for (std::size_t i = 0; i < kN; ++i) {
      if (stepped.chance(p)) want.push_back(i);
    }
    for (std::size_t i = 0;; ++i) {
      i += skipping.first_hit(t, kN - i);
      if (i == kN) break;
      got.push_back(i);
    }
    EXPECT_EQ(got, want) << "p = " << p;
    EXPECT_EQ(skipping.state(), stepped.state()) << "p = " << p;

    // n = 0 draws nothing and reports no hit.
    EXPECT_EQ(skipping.first_hit(t, 0), 0u);
    EXPECT_EQ(skipping.state(), stepped.state()) << "p = " << p;
  }
  EXPECT_EQ(Rng::Threshold(0x1.0p-53).bound, 1u);
  EXPECT_EQ(Rng::Threshold(0.5).bound, std::uint64_t{1} << 52);
  EXPECT_FALSE(Rng::Threshold(0.0).draws);
  EXPECT_FALSE(Rng::Threshold(1.0).draws);
}

TEST(Rng, Mix64SensitiveToAllArgs) {
  EXPECT_NE(mix64(1, 2, 3), mix64(1, 2, 4));
  EXPECT_NE(mix64(1, 2, 3), mix64(1, 3, 3));
  EXPECT_NE(mix64(1, 2, 3), mix64(2, 2, 3));
}

// --- stamped cells ------------------------------------------------------------

TEST(Stamps, ZeroStampIsIdentityOnPayload) {
  EXPECT_EQ(stamped(0, 1), 1);
  EXPECT_EQ(payload_of(1, 0), 1);
  EXPECT_EQ(payload_of(0, 0), 0);
}

TEST(Stamps, RoundTrip) {
  const Word cell = stamped(7, 12345);
  EXPECT_EQ(payload_of(cell, 7), 12345);
}

TEST(Stamps, StaleEpochReadsAsZero) {
  const Word cell = stamped(7, 12345);
  EXPECT_EQ(payload_of(cell, 8), 0);
  EXPECT_EQ(payload_of(cell, 6), 0);
  EXPECT_EQ(payload_of(cell, 0), 0);
}

// --- table ---------------------------------------------------------------------

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "23"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Format, FixedAndInt) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_int(0), "0");
  EXPECT_EQ(fmt_int(999), "999");
  EXPECT_EQ(fmt_int(1000), "1,000");
  EXPECT_EQ(fmt_int(1234567), "1,234,567");
}

}  // namespace
}  // namespace rfsp
