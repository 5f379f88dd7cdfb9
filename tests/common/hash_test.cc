// HashCombine folds the zero bytes above a value's highest non-zero byte
// into one multiply by a power of the FNV prime. These tests hold it to
// the plain 8-step FNV-1a byte loop, the definition every recorded hash
// (suite fingerprints, golden models, RunKey, fault plans) depends on.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/hash.h"
#include "common/rng.h"

namespace rvar {
namespace {

/// The reference: FNV-1a over all 8 little-endian bytes of `v`.
uint64_t EightStepHashCombine(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

TEST(HashCombineTest, PrimePowersAreRepeatedProducts) {
  uint64_t p = 1;
  for (size_t k = 0; k < internal::kFnvPrimePowers.size(); ++k) {
    EXPECT_EQ(internal::kFnvPrimePowers[k], p) << "k=" << k;
    p *= kFnvPrime;
  }
}

TEST(HashCombineTest, MatchesEightStepLoopOnEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             0xFF,
                             0x100,
                             0xFFFF,
                             0x10000,
                             uint64_t{1} << 56,
                             UINT64_MAX,
                             0x0100000000000001ULL,
                             0xFF000000000000FFULL,
                             0x0000FF0000FF0000ULL,
                             0x8000000000000000ULL,
                             0x00FFFFFFFFFFFFFFULL};
  const uint64_t seeds[] = {0, 1, kFnvOffsetBasis, UINT64_MAX,
                            0x9E3779B97F4A7C15ULL};
  for (uint64_t h : seeds) {
    for (uint64_t v : values) {
      ASSERT_EQ(HashCombine(h, v), EightStepHashCombine(h, v))
          << std::hex << "h=0x" << h << " v=0x" << v;
    }
  }
}

TEST(HashCombineTest, MatchesEightStepLoopAtEveryByteWidth) {
  // 10^6 seeded random values of each width 1..8 bytes (top byte forced
  // non-zero), with random interior zero bytes and random running hashes.
  Rng rng(20260421);
  for (int width = 1; width <= 8; ++width) {
    const uint64_t mask =
        width == 8 ? UINT64_MAX : (uint64_t{1} << (8 * width)) - 1;
    const uint64_t top = uint64_t{1} << (8 * (width - 1));
    for (int i = 0; i < 1000000; ++i) {
      uint64_t v = rng.Next() & mask;
      if (i % 4 == 0) {
        // Punch a zero byte below the top one.
        const int b = static_cast<int>(rng.Next() % 8);
        if (b < width - 1) v &= ~(uint64_t{0xFF} << (8 * b));
      }
      v |= top;
      const uint64_t h = rng.Next();
      ASSERT_EQ(HashCombine(h, v), EightStepHashCombine(h, v))
          << std::hex << "h=0x" << h << " v=0x" << v;
    }
  }
}

}  // namespace
}  // namespace rvar
