// Copyright 2026 The rvar Authors.
//
// Stable hashing used for job plan signatures (the paper computes a hash
// recursively over the compiled operator DAG to identify recurring jobs).
// These hashes must be stable across runs and platforms, so we use FNV-1a
// rather than std::hash.

#ifndef RVAR_COMMON_HASH_H_
#define RVAR_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rvar {

inline constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

/// FNV-1a over a byte string, continuing from `seed`.
inline uint64_t Fnv1a(std::string_view bytes, uint64_t seed = kFnvOffsetBasis) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

namespace internal {

/// kFnvPrime^k mod 2^64 for k in [0, 8].
inline constexpr std::array<uint64_t, 9> kFnvPrimePowers = [] {
  std::array<uint64_t, 9> powers{};
  powers[0] = 1;
  for (size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

}  // namespace internal

/// Mixes a 64-bit value into a running hash (order-sensitive): FNV-1a over
/// the 8 little-endian bytes of `v`. The loop stops after the highest
/// non-zero byte; each remaining zero byte would only multiply by
/// kFnvPrime (XOR with 0 is the identity), so they fold into one multiply
/// by kFnvPrime^(zero bytes). Multiplication mod 2^64 is associative, so
/// every input hashes exactly as the 8-step loop does, and small values
/// (time buckets, machine ids) cost 2 byte steps plus one multiply.
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  size_t steps = 0;
  for (; v != 0; v >>= 8, ++steps) {
    h ^= v & 0xFF;
    h *= kFnvPrime;
  }
  return h * internal::kFnvPrimePowers[8 - steps];
}

}  // namespace rvar

#endif  // RVAR_COMMON_HASH_H_
