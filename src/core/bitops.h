// Word-level bit primitives backing the XNOR-popcount datapath (§III-B1).
#pragma once

#include <bit>
#include <cstdint>

namespace qnn {

using Word = std::uint64_t;
inline constexpr int kWordBits = 64;

/// Number of 64-bit words needed to hold `bits` bits.
[[nodiscard]] constexpr std::int64_t words_for_bits(std::int64_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

/// Mask with the low `n` bits set (0 <= n <= 64).
[[nodiscard]] constexpr Word low_mask(int n) {
  return n >= kWordBits ? ~Word{0} : ((Word{1} << n) - 1);
}

[[nodiscard]] inline int popcount(Word w) { return std::popcount(w); }

/// XNOR-popcount of one word pair over `n` valid low bits: the number of
/// positions where the two +-1 operands agree.
[[nodiscard]] inline int xnor_popcount(Word a, Word b, int n) {
  return std::popcount(~(a ^ b) & low_mask(n));
}

/// Dot product of two length-n vectors of +-1 values packed as sign bits
/// (bit=1 encodes +1, bit=0 encodes -1), one word at a time:
///   dot = agreements - disagreements = 2*agreements - n.
[[nodiscard]] inline int pm1_dot_word(Word a, Word b, int n) {
  return 2 * xnor_popcount(a, b, n) - n;
}

}  // namespace qnn
