// Small integer-math helpers shared across modules.
#pragma once

#include <cstdint>

namespace cclique {

/// ceil(a / b) for non-negative a and positive b.
inline std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Number of bits needed to represent values in [0, n); at least 1.
/// This is the standard message-field width for node ids in [0, n).
inline int bits_for(std::uint64_t n) {
  int w = 1;
  // Capping at 64 keeps the shift defined for n > 2^63 (the old loop would
  // have evaluated 1ULL << 64, which is UB, before terminating).
  while (w < 64 && (1ULL << w) < n) ++w;
  return w;
}

/// floor(log2(x)) for x >= 1.
inline int floor_log2(std::uint64_t x) {
  int l = 0;
  while (x >>= 1) ++l;
  return l;
}

/// ceil(log2(x)) for x >= 1: the smallest s with 2^s >= x.
inline int ceil_log2(std::uint64_t x) {
  int s = 0;
  // Capped like bits_for: x > 2^63 needs 64, and 1ULL << 64 is UB.
  while (s < 64 && (1ULL << s) < x) ++s;
  return s;
}

/// Integer square root: the largest r with r*r <= x.
inline std::uint64_t isqrt(std::uint64_t x) {
  if (x == 0) return 0;
  constexpr std::uint64_t kMax = 0xFFFFFFFFULL;  // isqrt(2^64 - 1)
  std::uint64_t r = static_cast<std::uint64_t>(__builtin_sqrtl(static_cast<long double>(x)));
  if (r > kMax) r = kMax;
  while (r > 0 && r * r > x) --r;
  // The kMax guard keeps (r + 1)^2 from wrapping for x near 2^64 (the
  // correction loop used to spin or stop one short once r + 1 hit 2^32).
  while (r < kMax && (r + 1) * (r + 1) <= x) ++r;
  return r;
}

/// Integer cube root: the largest r with r*r*r <= x. The grid dimension of
/// the algebraic matrix-multiplication protocol (core/algebraic_mm) is
/// icbrt(n), so exactness matters at perfect cubes.
inline std::uint64_t icbrt(std::uint64_t x) {
  if (x == 0) return 0;
  constexpr std::uint64_t kMax = 2642245ULL;  // icbrt(2^64 - 1)
  std::uint64_t r = static_cast<std::uint64_t>(__builtin_cbrtl(static_cast<long double>(x)));
  if (r > kMax) r = kMax;
  while (r > 0 && r * r * r > x) --r;
  while (r < kMax && (r + 1) * (r + 1) * (r + 1) <= x) ++r;
  return r;
}

/// Deterministic primality test for 64-bit inputs (trial division is enough
/// for the small q used by projective-plane constructions).
inline bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  if (n % 2 == 0) return n == 2;
  for (std::uint64_t d = 3; d * d <= n; d += 2) {
    if (n % d == 0) return false;
  }
  return true;
}

/// Largest prime <= n, or 0 if none.
inline std::uint64_t prev_prime(std::uint64_t n) {
  for (std::uint64_t q = n; q >= 2; --q) {
    if (is_prime(q)) return q;
  }
  return 0;
}

}  // namespace cclique
