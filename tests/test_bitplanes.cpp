#include "core/bitplanes.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/bitvector.h"
#include "core/packed_planes.h"
#include "core/rng.h"
#include "core/simd/vec_ops.h"

namespace qnn {
namespace {

/// Property: the packed bit-plane dot the conv kernel computes (codes
/// packed into a line-buffer row, spliced into a window, swept against a
/// packed filter) equals the scalar signed dot for random weights and
/// codes, across bit widths (the 2-bit activations of the paper and the
/// 8-bit first layer alike).
class BitPlaneDotProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitPlaneDotProperty, MatchesScalarReference) {
  const int bits = GetParam();
  const simd::VecOps& ops = simd::vec_ops();
  Rng rng(1234 + static_cast<std::uint64_t>(bits));
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(200));
    BitVector w(n);
    std::vector<std::int8_t> w_pm1(static_cast<std::size_t>(n));
    std::vector<std::int32_t> codes(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const bool bit = rng.next_bool();
      w.set(i, bit);
      w_pm1[static_cast<std::size_t>(i)] = bit ? 1 : -1;
      codes[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
          rng.next_below(std::uint64_t{1} << bits));
    }
    BitPlaneLineBuffer lines(bits, /*rows=*/1, n);
    lines.pack_run(0, 0, codes);
    PackedWindow win(n, bits);
    for (int p = 0; p < bits; ++p) win.splice(lines, p, 0, 0, 0, n);
    win.finalize(ops);
    PackedFilters filter(n, 1);
    std::vector<Word> words(filter.words());
    for (std::int64_t i = 0; i < w.words(); ++i) {
      words[static_cast<std::size_t>(i)] = w.word(i);
    }
    filter.set(0, words);
    std::vector<std::int64_t> acc(filter.padded_count());
    win.dot(ops, filter, acc.data());
    EXPECT_EQ(acc[0], reference_pm1_dot(w_pm1, codes))
        << "bits=" << bits << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPlaneDotProperty,
                         ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace qnn
