#include "core/bitops.h"

#include <gtest/gtest.h>

namespace qnn {
namespace {

TEST(BitOps, WordsForBits) {
  EXPECT_EQ(words_for_bits(0), 0);
  EXPECT_EQ(words_for_bits(1), 1);
  EXPECT_EQ(words_for_bits(64), 1);
  EXPECT_EQ(words_for_bits(65), 2);
  EXPECT_EQ(words_for_bits(128), 2);
  EXPECT_EQ(words_for_bits(129), 3);
}

TEST(BitOps, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(8), 0xffu);
  EXPECT_EQ(low_mask(63), 0x7fffffffffffffffull);
  EXPECT_EQ(low_mask(64), ~Word{0});
}

TEST(BitOps, Popcount) {
  EXPECT_EQ(popcount(0), 0);
  EXPECT_EQ(popcount(~Word{0}), 64);
  EXPECT_EQ(popcount(0xf0f0u), 8);
}

TEST(BitOps, XnorPopcountCountsAgreements) {
  // a = 1010, b = 1001 over 4 bits: agree at positions 1 and 3? bits:
  // a: 0,1,0,1 (LSB first), b: 1,0,0,1 -> agree at bit2 (0==0) and bit3.
  EXPECT_EQ(xnor_popcount(0b1010, 0b1001, 4), 2);
  EXPECT_EQ(xnor_popcount(0xff, 0xff, 8), 8);
  EXPECT_EQ(xnor_popcount(0xff, 0x00, 8), 0);
}

TEST(BitOps, XnorPopcountIgnoresTail) {
  // Identical high garbage beyond n must not count.
  EXPECT_EQ(xnor_popcount(0xff00, 0xff00, 4), 4);  // low nibble 0==0 agrees
  EXPECT_EQ(xnor_popcount(0xfff0, 0x0000, 4), 4);
}

TEST(BitOps, Pm1DotMatchesSignedArithmetic) {
  // n = 5, a bits = 10110 -> +1 at 1,2,4; b bits = 00111.
  const int a[5] = {-1, +1, +1, -1, +1};
  const int b[5] = {+1, +1, +1, -1, -1};
  int expect = 0;
  for (int i = 0; i < 5; ++i) expect += a[i] * b[i];
  EXPECT_EQ(pm1_dot_word(0b10110, 0b00111, 5), expect);
}

TEST(BitOps, Pm1DotExtremes) {
  EXPECT_EQ(pm1_dot_word(low_mask(64), low_mask(64), 64), 64);
  EXPECT_EQ(pm1_dot_word(low_mask(64), 0, 64), -64);
}

}  // namespace
}  // namespace qnn
