// vec_ops seam: every compiled+supported SIMD level must agree bit-exactly
// with the scalar reference on random word buffers, including lengths that
// exercise every tail-handling path (0, sub-block, block-multiple, and
// block+tail) and filter counts that leave filter-lane groups partly
// padded. Also pins the dispatch contract: kScalar is always present, and
// set_level overrides whatever auto/env dispatch picked.
#include "core/simd/vec_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bitops.h"
#include "core/packed_planes.h"
#include "core/rng.h"

namespace qnn {
namespace {

std::vector<Word> random_words(std::size_t n, Rng& rng) {
  std::vector<Word> v(n);
  for (auto& w : v) w = rng.next_u64();
  return v;
}

TEST(VecOps, ScalarAlwaysAvailable) {
  const auto levels = simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  EXPECT_STREQ(simd::vec_ops_at(simd::Level::kScalar).name, "scalar");
  // The dispatched table is one of the available levels.
  const auto& ops = simd::vec_ops();
  EXPECT_TRUE(std::find(levels.begin(), levels.end(), ops.level) !=
              levels.end());
}

TEST(VecOps, LevelNames) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
}

TEST(VecOps, SetLevelOverridesDispatch) {
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    EXPECT_EQ(simd::vec_ops().level, level);
  }
  simd::set_level(std::nullopt);
  const auto levels = simd::available_levels();
  EXPECT_TRUE(std::find(levels.begin(), levels.end(),
                        simd::vec_ops().level) != levels.end());
}

// Lengths covering empty, scalar tails, exact SIMD blocks (4 words for
// AVX2, 8 for AVX-512), and block+tail combinations.
constexpr std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31};

TEST(VecOps, PopcountMatchesScalarAtEveryLevel) {
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0xabc1);
  for (const simd::Level level : simd::available_levels()) {
    const auto& ops = simd::vec_ops_at(level);
    for (const std::size_t n : kLengths) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto a = random_words(n, rng);
        EXPECT_EQ(ops.popcount(a.data(), n), scalar.popcount(a.data(), n))
            << simd::level_name(level) << " n=" << n;
      }
    }
  }
}

/// Random filters in the filter-lane layout (count padded to 8 with zero
/// filters) and a random plane-interleaved `n`-word x `planes` window.
struct DotCase {
  PackedFilters filters;
  std::vector<Word> window;
};

DotCase random_dot_case(std::size_t n, int planes, int filters, Rng& rng) {
  DotCase c{PackedFilters(static_cast<std::int64_t>(n) * kWordBits, filters),
            random_words(n * static_cast<std::size_t>(planes), rng)};
  for (int f = 0; f < filters; ++f) c.filters.set(f, random_words(n, rng));
  return c;
}

TEST(VecOps, DotWindowMatchesScalarAtEveryLevel) {
  // Words per plane from the one-word case through conv_0's 3 (a 7x7x3
  // window) to a 3x3x256 window's 72, odd lengths exercising the AVX-512
  // pairwise tail; filter counts below, at and around the 8-lane group.
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0xabc3);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{9},
                              std::size_t{17}, std::size_t{72}}) {
    for (const int planes : {1, 2, 3, 4, 5, 6, 7, 8, 12, 16}) {
      for (const int filters : {1, 5, 8, 10, 64, 1000}) {
        const DotCase c = random_dot_case(n, planes, filters, rng);
        const std::size_t lanes = c.filters.padded_count();
        std::vector<std::int64_t> expect(lanes, 1000);
        scalar.dot_window(c.window.data(), n, planes, c.filters.data(),
                          c.filters.groups(), expect.data());
        for (const simd::Level level : simd::available_levels()) {
          std::vector<std::int64_t> got(lanes, -1000);
          simd::vec_ops_at(level).dot_window(c.window.data(), n, planes,
                                             c.filters.data(),
                                             c.filters.groups(), got.data());
          ASSERT_EQ(got, expect)
              << simd::level_name(level) << " n=" << n << " planes=" << planes
              << " filters=" << filters;
        }
      }
    }
  }
}

TEST(VecOps, DotWindowImplementsPm1PlaneSum) {
  // acc[f] = sum_p (2*popcount(w_f & a_p) - popcount(a_p)) << p, the
  // XNOR-popcount dot of §III-B1 summed over bit-planes, at every level.
  // Two planes of two words, plane-interleaved [word][plane]; two real
  // filters, six zero pad lanes.
  const std::vector<Word> window = {0b1011, 0b0110,  // word 0 of planes 0, 1
                                    0, 1};           // word 1 of planes 0, 1
  // plane 0 = {0b1011, 0}: pop 3; plane 1 = {0b0110, 1}: pop 3.
  PackedFilters filters(2 * kWordBits, 2);
  filters.set(0, std::vector<Word>{0b0011, 0});
  filters.set(1, std::vector<Word>{~Word{0}, ~Word{0}});
  ASSERT_EQ(filters.padded_count(), 8u);
  for (const simd::Level level : simd::available_levels()) {
    std::int64_t acc[8];
    simd::vec_ops_at(level).dot_window(window.data(), 2, 2, filters.data(),
                                       1, acc);
    // f0: plane 0 on=2 -> 4-3 = 1; plane 1 on=1 -> (2-3)<<1 = -2. Sum -1.
    EXPECT_EQ(acc[0], -1) << simd::level_name(level);
    // f1: plane 0 on=3 -> 3; plane 1 on=3 -> 3<<1 = 6. Sum 9.
    EXPECT_EQ(acc[1], 9) << simd::level_name(level);
    // Zero pad filters agree with no bit: -(3 + (3<<1)) = -9.
    for (int l = 2; l < 8; ++l) {
      EXPECT_EQ(acc[l], -9) << simd::level_name(level) << " lane " << l;
    }
  }
}

}  // namespace
}  // namespace qnn
