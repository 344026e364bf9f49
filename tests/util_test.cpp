// Unit tests for the util substrate: bit vectors, PRNG, field, math.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/bitvec.h"
#include "util/check.h"
#include "util/field.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace cclique {
namespace {

TEST(BitVec, StartsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size_bits(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(BitVec, PushAndGet) {
  BitVec v;
  v.push_bit(true);
  v.push_bit(false);
  v.push_bit(true);
  ASSERT_EQ(v.size_bits(), 3u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
}

TEST(BitVec, PushUintRoundTrips) {
  BitVec v;
  v.push_uint(0xDEADBEEFCAFEULL, 48);
  EXPECT_EQ(v.read_uint(0, 48), 0xDEADBEEFCAFEULL);
}

TEST(BitVec, PushUintLittleEndianBitOrder) {
  BitVec v;
  v.push_uint(0b101, 3);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
}

TEST(BitVec, MixedFieldsRoundTrip) {
  BitVec v;
  v.push_uint(42, 17);
  v.push_bit(true);
  v.push_uint(7, 3);
  BitReader r(v);
  EXPECT_EQ(r.read_uint(17), 42u);
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read_uint(3), 7u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitVec, AppendConcatenates) {
  BitVec a, b;
  a.push_uint(5, 4);
  b.push_uint(9, 5);
  a.append(b);
  ASSERT_EQ(a.size_bits(), 9u);
  EXPECT_EQ(a.read_uint(0, 4), 5u);
  EXPECT_EQ(a.read_uint(4, 5), 9u);
}

TEST(BitVec, SetClearsAndSets) {
  BitVec v(128);
  v.set(100, true);
  EXPECT_TRUE(v.get(100));
  v.set(100, false);
  EXPECT_FALSE(v.get(100));
}

TEST(BitVec, EqualityIsBitwise) {
  BitVec a, b;
  a.push_uint(3, 2);
  b.push_uint(3, 2);
  EXPECT_EQ(a, b);
  b.push_bit(false);
  EXPECT_NE(a, b);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(4);
  EXPECT_THROW(v.get(4), PreconditionError);
  EXPECT_THROW(v.read_uint(2, 3), PreconditionError);
}

TEST(BitVec, OwnsItsBitsThroughMoveCopyAndClear) {
  // 130 bits: a full word, a second full word and a 2-bit tail.
  const auto fill = [](BitVec& v) {
    v.push_uint(0x0123456789ABCDEFULL, 64);
    v.push_uint(0xFEDCBA9876543210ULL, 64);
    v.push_uint(0b10, 2);
  };
  BitVec reference;
  fill(reference);

  // A moved-from BitVec reads empty and accepts new appends.
  BitVec src;
  fill(src);
  BitVec moved(std::move(src));
  EXPECT_EQ(moved, reference);
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
  src.push_uint(0b101, 3);
  ASSERT_EQ(src.size_bits(), 3u);
  EXPECT_EQ(src.read_uint(0, 3), 0b101u);
  BitVec assigned;
  assigned.push_bit(true);
  assigned = std::move(moved);
  EXPECT_EQ(assigned, reference);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  moved.push_bit(true);
  EXPECT_EQ(moved.to_string(), "1");

  // A copy is deep: writing either side leaves the other as it was.
  const std::string bits = reference.to_string();
  BitVec copy = reference;
  copy.set(0, !copy.get(0));
  copy.push_bit(true);
  EXPECT_EQ(reference.to_string(), bits);
  BitVec copy_assigned;
  copy_assigned = reference;
  reference.set(129, false);
  EXPECT_EQ(copy_assigned.to_string(), bits);

  // clear() then a refill reproduces the same bits, even over all-ones
  // leftovers that an OR-ing append would otherwise pick up.
  BitVec slot;
  fill(slot);
  slot.clear();
  EXPECT_TRUE(slot.empty());
  fill(slot);
  EXPECT_EQ(slot.to_string(), bits);
  slot.clear();
  for (int i = 0; i < 130; ++i) slot.push_bit(true);
  slot.clear();
  fill(slot);
  EXPECT_EQ(slot.to_string(), bits);
}

// The bulk packers are the wire format of every dense block-product slice,
// and the baselines pin only lengths, so these pin the bits: a bulk append
// writes exactly what the matching push_uint sequence writes, from every
// start offset within a word, and a bulk read returns exactly what the
// matching read_uint sequence returns.
TEST(BitVec, BulkWordsMatchTheirPushUintAndReadUintSequences) {
  Rng rng(2801);
  const std::size_t kCount = 9;  // enough fields to straddle several words
  for (int width : {1, 2, 7, 32, 61, 63, 64}) {
    const std::uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
    for (int start = 0; start < 64; ++start) {
      SCOPED_TRACE("width=" + std::to_string(width) + " start=" + std::to_string(start));
      // Full 64-bit values: the bits above `width` must be dropped.
      std::vector<std::uint64_t> values(kCount);
      for (std::uint64_t& v : values) v = rng.next_u64() | ~mask;
      const std::uint64_t prefix = rng.next_u64(), tail = rng.next_u64();
      BitVec bulk, single;
      bulk.push_uint(prefix, start);
      single.push_uint(prefix, start);
      bulk.push_words(values.data(), values.size(), width);
      for (const std::uint64_t v : values) single.push_uint(v, width);
      ASSERT_EQ(bulk.size_bits(), static_cast<std::size_t>(start) + kCount * width);
      EXPECT_EQ(bulk.to_string(), single.to_string());
      // Appends after a bulk run land where they would after push_uint.
      bulk.push_uint(tail, 13);
      single.push_uint(tail, 13);
      EXPECT_EQ(bulk.to_string(), single.to_string());

      std::vector<std::uint64_t> read;
      single.read_words(static_cast<std::size_t>(start), kCount, width,
                        [&](std::uint64_t v) { read.push_back(v); });
      ASSERT_EQ(read.size(), kCount);
      for (std::size_t k = 0; k < kCount; ++k) {
        EXPECT_EQ(read[k], single.read_uint(static_cast<std::size_t>(start) + k * width, width));
        EXPECT_EQ(read[k], values[k] & mask);
      }
    }
  }
}

TEST(BitVec, BulkWordsRejectBadWidthsAndReadsPastTheEnd) {
  const std::uint64_t words[2] = {5, 6};
  BitVec v;
  EXPECT_THROW(v.push_words(words, 2, 0), PreconditionError);
  EXPECT_THROW(v.push_words(words, 2, 65), PreconditionError);
  EXPECT_TRUE(v.empty());  // a rejected run appends nothing
  v.push_words(words, 2, 7);
  ASSERT_EQ(v.size_bits(), 14u);
  std::size_t calls = 0;
  const auto count = [&](std::uint64_t) { ++calls; };
  EXPECT_THROW(v.read_words(0, 1, 0, count), PreconditionError);
  EXPECT_THROW(v.read_words(0, 1, 65, count), PreconditionError);
  EXPECT_THROW(v.read_words(1, 2, 7, count), PreconditionError);  // one bit past the end
  EXPECT_THROW(v.read_words(15, 0, 7, count), PreconditionError);  // starts past the end
  EXPECT_EQ(calls, 0u);  // a rejected read hands nothing over
  v.read_words(14, 0, 7, count);
  v.read_words(0, 2, 7, count);
  EXPECT_EQ(calls, 2u);
}

TEST(BitReader, ExhaustionThrows) {
  BitVec v;
  v.push_bit(true);
  BitReader r(v);
  r.read_bit();
  EXPECT_THROW(r.read_bit(), PreconditionError);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(99);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitIndependence) {
  Rng parent(11);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Mersenne61, AddWraps) {
  EXPECT_EQ(Mersenne61::add(Mersenne61::kP - 1, 1), 0u);
}

TEST(Mersenne61, SubWraps) {
  EXPECT_EQ(Mersenne61::sub(0, 1), Mersenne61::kP - 1);
}

TEST(Mersenne61, MulMatchesSmallCases) {
  EXPECT_EQ(Mersenne61::mul(3, 5), 15u);
  EXPECT_EQ(Mersenne61::mul(Mersenne61::kP - 1, 2), Mersenne61::kP - 2);
}

TEST(Mersenne61, InverseIsInverse) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::uint64_t a = Mersenne61::reduce(rng.next_u64());
    if (a == 0) continue;
    EXPECT_EQ(Mersenne61::mul(a, Mersenne61::inv(a)), 1u);
  }
}

TEST(Mersenne61, PowMatchesRepeatedMul) {
  std::uint64_t x = 123456789;
  std::uint64_t acc = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(Mersenne61::pow(x, static_cast<std::uint64_t>(e)), acc);
    acc = Mersenne61::mul(acc, x);
  }
}

TEST(Mersenne61, InverseOfZeroThrows) {
  EXPECT_THROW(Mersenne61::inv(0), PreconditionError);
}

TEST(Mersenne61, ReduceEdgeCases) {
  EXPECT_EQ(Mersenne61::reduce(0), 0u);
  EXPECT_EQ(Mersenne61::reduce(Mersenne61::kP), 0u);
  EXPECT_EQ(Mersenne61::reduce(Mersenne61::kP - 1), Mersenne61::kP - 1);
  EXPECT_EQ(Mersenne61::reduce(Mersenne61::kP + 1), 1u);
  // 2^64 - 1 = 8p + 7.
  EXPECT_EQ(Mersenne61::reduce(UINT64_MAX), 7u);
  EXPECT_EQ(Mersenne61::reduce(1ULL << 61), 1u);
}

TEST(Mersenne61, PowZeroExponentIsOne) {
  EXPECT_EQ(Mersenne61::pow(123456789, 0), 1u);
  EXPECT_EQ(Mersenne61::pow(0, 0), 1u);  // empty product convention
  EXPECT_EQ(Mersenne61::pow(0, 5), 0u);
  // Fermat: x^(p-1) = 1 for x != 0.
  EXPECT_EQ(Mersenne61::pow(2, Mersenne61::kP - 1), 1u);
}

TEST(Mersenne61, MulNearP) {
  const std::uint64_t p1 = Mersenne61::kP - 1;  // = -1 mod p
  EXPECT_EQ(Mersenne61::mul(p1, p1), 1u);
  EXPECT_EQ(Mersenne61::mul(p1, 2), Mersenne61::kP - 2);
  EXPECT_EQ(Mersenne61::mul(p1, Mersenne61::kP - 2), 2u);
  EXPECT_EQ(Mersenne61::mul(Mersenne61::kP, 12345), 0u);  // p = 0 mod p
  EXPECT_EQ(Mersenne61::mul(p1, 0), 0u);
}

TEST(Mersenne61, InverseRoundTripsNearP) {
  for (std::uint64_t a : {std::uint64_t{2}, Mersenne61::kP - 1, Mersenne61::kP - 2,
                          std::uint64_t{1} << 60}) {
    EXPECT_EQ(Mersenne61::mul(a, Mersenne61::inv(a)), 1u) << a;
    EXPECT_EQ(Mersenne61::inv(Mersenne61::inv(a)), Mersenne61::reduce(a)) << a;
  }
}

TEST(Mersenne61, Reduce128) {
  EXPECT_EQ(Mersenne61::reduce128(0), 0u);
  EXPECT_EQ(Mersenne61::reduce128(Mersenne61::kP), 0u);
  // 2^61 = 1 and 2^122 = 1 (mod p).
  EXPECT_EQ(Mersenne61::reduce128(static_cast<__uint128_t>(1) << 61), 1u);
  EXPECT_EQ(Mersenne61::reduce128(static_cast<__uint128_t>(1) << 122), 1u);
  // The kernel's worst case: 64 maximal products.
  const __uint128_t prod = static_cast<__uint128_t>(Mersenne61::kP - 1) * (Mersenne61::kP - 1);
  __uint128_t acc = 0;
  std::uint64_t expect = 0;
  for (int i = 0; i < 64; ++i) {
    acc += prod;
    expect = Mersenne61::add(expect, 1);  // (-1)*(-1) = 1 each time
  }
  EXPECT_EQ(Mersenne61::reduce128(acc), expect);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(MathUtil, BitsFor) {
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(2), 1);
  EXPECT_EQ(bits_for(3), 2);
  EXPECT_EQ(bits_for(256), 8);
  EXPECT_EQ(bits_for(257), 9);
}

TEST(MathUtil, BitsForHugeInputsStayDefined) {
  // n > 2^63 used to shift 1ULL << 64 (UB); the loop now caps at width 64.
  EXPECT_EQ(bits_for(1ULL << 62), 62);
  EXPECT_EQ(bits_for((1ULL << 62) + 1), 63);
  EXPECT_EQ(bits_for(1ULL << 63), 63);
  EXPECT_EQ(bits_for((1ULL << 63) + 1), 64);
  EXPECT_EQ(bits_for(UINT64_MAX), 64);
}

TEST(MathUtil, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(MathUtil, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2((1ULL << 31) - 1), 31);
  EXPECT_EQ(ceil_log2(1ULL << 31), 31);
}

TEST(MathUtil, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1ULL << 40), 1ULL << 20);
}

TEST(MathUtil, IsqrtNearUint64MaxDoesNotWrap) {
  // (r + 1)^2 used to wrap to 0 once r + 1 reached 2^32, making the
  // correction loop either spin or stop one short of the true root.
  const std::uint64_t root_max = 0xFFFFFFFFULL;       // isqrt(2^64 - 1)
  const std::uint64_t square = root_max * root_max;   // 0xFFFFFFFE00000001
  EXPECT_EQ(isqrt(UINT64_MAX), root_max);
  EXPECT_EQ(isqrt(square), root_max);
  EXPECT_EQ(isqrt(square - 1), root_max - 1);
  EXPECT_EQ(isqrt(1ULL << 62), 1ULL << 31);
  EXPECT_EQ(isqrt((1ULL << 62) - 1), (1ULL << 31) - 1);
}

TEST(MathUtil, Icbrt) {
  EXPECT_EQ(icbrt(0), 0u);
  EXPECT_EQ(icbrt(1), 1u);
  EXPECT_EQ(icbrt(7), 1u);
  EXPECT_EQ(icbrt(8), 2u);
  EXPECT_EQ(icbrt(26), 2u);
  EXPECT_EQ(icbrt(27), 3u);
  EXPECT_EQ(icbrt(63), 3u);
  EXPECT_EQ(icbrt(64), 4u);
  EXPECT_EQ(icbrt(125), 5u);
  EXPECT_EQ(icbrt(216), 6u);
  EXPECT_EQ(icbrt(1000000), 100u);
  // Exact at huge perfect cubes and at the top of the range.
  const std::uint64_t r = 2642244;
  EXPECT_EQ(icbrt(r * r * r), r);
  EXPECT_EQ(icbrt(r * r * r - 1), r - 1);
  EXPECT_EQ(icbrt(UINT64_MAX), 2642245u);
}

TEST(MathUtil, IsPrime) {
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(1));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
}

TEST(MathUtil, PrevPrime) {
  EXPECT_EQ(prev_prime(10), 7u);
  EXPECT_EQ(prev_prime(7), 7u);
  EXPECT_EQ(prev_prime(1), 0u);
}

TEST(Check, MacrosThrowTypedErrors) {
  EXPECT_THROW(CC_REQUIRE(false, "boom"), PreconditionError);
  EXPECT_THROW(CC_CHECK(false, "boom"), InvariantError);
  EXPECT_THROW(CC_MODEL(false, "boom"), ModelViolation);
}

}  // namespace
}  // namespace cclique
