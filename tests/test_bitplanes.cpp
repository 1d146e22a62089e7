#include "core/bitplanes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/bitvector.h"
#include "core/error.h"
#include "core/packed_planes.h"
#include "core/rng.h"
#include "core/simd/vec_ops.h"

namespace qnn {
namespace {

/// Property: the packed dot the conv kernel computes for a code width
/// equals the scalar signed dot for random weights and codes. Widths of 1
/// and 2 bits (the paper's activations) take the bit-plane path — codes
/// packed into a line-buffer row, built into a window, swept against a
/// packed filter; wider ones (the 8-bit first layer, up to 16 bits) the
/// byte path — codes stored as byte-planes, copied into a byte window,
/// swept against the same sign bits as mask words.
class BitPlaneDotProperty : public ::testing::TestWithParam<int> {};

/// The filter's BitVector words, as a conv packs them.
std::vector<Word> filter_words(const BitVector& w) {
  std::vector<Word> words(static_cast<std::size_t>(w.words()));
  for (std::int64_t i = 0; i < w.words(); ++i) {
    words[static_cast<std::size_t>(i)] = w.word(i);
  }
  return words;
}

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
    std::int32_t out = 0;
    if (bits <= simd::kMaxPlanes) {
      BitPlaneLineBuffer lines(bits, /*rows=*/1, n);
      lines.pack_run(ops, 0, 0, codes);
      PackedWindow win(n, bits);
      win.build(ops, lines, 0, 0, n);
      PackedFilters filter(n, 1);
      filter.set(0, filter_words(w));
      win.dot(ops, filter, &out);
    } else {
      ByteLineBuffer lines(bits, /*rows=*/1, n);
      lines.pack_run(0, 0, codes);
      ByteWindow win(n, lines.planes());
      win.build(lines, 0, 0, n);
      ByteFilters filter(n, 1);
      filter.set(0, filter_words(w));
      win.dot(ops, filter, &out);
    }
    EXPECT_EQ(out, reference_pm1_dot(w_pm1, codes))
        << "bits=" << bits << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPlaneDotProperty,
                         ::testing::Values(1, 2, 3, 4, 8, 12, 16));

TEST(BitPlaneLineBufferTest, RejectsBadShapesBeforeAllocating) {
  // A negative count must fail the shape check, not become a huge size_t
  // and a bad_alloc; the bit-plane path also takes at most two planes.
  EXPECT_THROW(BitPlaneLineBuffer(-1, 2, 64), Error);
  EXPECT_THROW(BitPlaneLineBuffer(simd::kMaxPlanes + 1, 2, 64), Error);
  EXPECT_THROW(BitPlaneLineBuffer(1, -2, 64), Error);
  EXPECT_THROW(PackedWindow(64, -1), Error);
  EXPECT_THROW(PackedWindow(-64, 1), Error);
  EXPECT_THROW(PackedWindow(64, simd::kMaxPlanes + 1), Error);
  EXPECT_THROW(ByteLineBuffer(-1, 2, 64), Error);
  EXPECT_THROW(ByteLineBuffer(17, 2, 64), Error);
  EXPECT_THROW(ByteLineBuffer(8, 2, -64), Error);
  EXPECT_THROW(ByteWindow(64, -1), Error);
  EXPECT_THROW(ByteWindow(-64, 1), Error);
}

TEST(PackedFilters, BankIsCacheLineAligned) {
  // The weight bank starts on a 64-byte boundary whatever its size, so no
  // zmm weight load of the AVX-512 dot splits a cache line; the window's
  // and the line buffer's words stay plain vectors.
  for (const int count : {1, 8, 64, 1000}) {
    for (const std::int64_t bits : {std::int64_t{27}, std::int64_t{576},
                                    std::int64_t{2304}}) {
      const PackedFilters filters(bits, count);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(filters.data()) % 64, 0u)
          << "count=" << count << " bits=" << bits;
      EXPECT_EQ(filters.padded_count() % simd::kFilterLanes, 0u);
    }
  }
}

/// Bit `pos` of plane `p` in a plane-interleaved [word][plane] buffer.
bool interleaved_bit(const Word* words, int planes, std::int64_t pos, int p) {
  return ((words[(pos / kWordBits) * planes + p] >> (pos % kWordBits)) & 1U) !=
         0;
}

/// Random 32-bit codes: every bit at or above the plane count is set about
/// half the time, as a fault-injected bit flip would leave it.
std::vector<std::int32_t> noisy_codes(std::int64_t n, Rng& rng) {
  std::vector<std::int32_t> codes(static_cast<std::size_t>(n));
  for (auto& c : codes) c = static_cast<std::int32_t>(rng.next_u64());
  return codes;
}

TEST(BitPlaneLineBufferTest, PackRunMatchesBitByBitReference) {
  // Runs of every length up to a few words, starting mid-word and ending
  // mid-row, at both plane counts and every SIMD level (the scalar level's
  // eight-codes-per-multiply path and its per-bit tail alike). Code bits at
  // or above the plane count must not
  // leak into any plane. Each run is a whole, exactly sized heap vector,
  // so a pack that reads past a run's last code is an ASan report.
  for (const simd::Level level : simd::available_levels()) {
    const simd::VecOps& ops = simd::vec_ops_at(level);
    Rng rng(0x9ac7);
    for (int planes = 1; planes <= BitPlaneLineBuffer::kMaxPlanes; ++planes) {
      for (int trial = 0; trial < 24; ++trial) {
        const std::int64_t row_bits =
            1 + static_cast<std::int64_t>(rng.next_below(300));
        BitPlaneLineBuffer lines(planes, /*rows=*/2, row_bits);
        lines.clear_row(1);
        std::vector<std::int32_t> row(static_cast<std::size_t>(row_bits), 0);
        std::vector<bool> written(static_cast<std::size_t>(row_bits), false);
        // Cover the row with runs of random length in random order.
        std::int64_t pos = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(row_bits)));
        const std::int64_t end =
            pos + static_cast<std::int64_t>(rng.next_below(
                      static_cast<std::uint64_t>(row_bits - pos + 1)));
        while (pos < end) {
          const std::int64_t n = std::min<std::int64_t>(
              end - pos, 1 + static_cast<std::int64_t>(rng.next_below(150)));
          const auto codes = noisy_codes(n, rng);
          lines.pack_run(ops, 1, pos, codes);
          for (std::int64_t i = 0; i < n; ++i) {
            row[static_cast<std::size_t>(pos + i)] =
                codes[static_cast<std::size_t>(i)];
            written[static_cast<std::size_t>(pos + i)] = true;
          }
          pos += n;
        }
        for (std::int64_t i = 0; i < lines.row_words() * kWordBits; ++i) {
          for (int p = 0; p < planes; ++p) {
            const bool expect =
                i < row_bits && written[static_cast<std::size_t>(i)] &&
                ((static_cast<std::uint32_t>(
                      row[static_cast<std::size_t>(i)]) >>
                  p) & 1U) != 0;
            ASSERT_EQ(interleaved_bit(lines.row(1), planes, i, p), expect)
                << ops.name << " planes=" << planes << " bit=" << i
                << " plane=" << p;
          }
        }
      }
    }
  }
}

/// Window geometry of one conv: C channels, K x K window, stride.
struct WindowGeometry {
  int c, k, stride;
};

std::string geometry_name(const WindowGeometry& g) {
  return "c" + std::to_string(g.c) + "_k" + std::to_string(g.k) + "_s" +
         std::to_string(g.stride);
}
void PrintTo(const WindowGeometry& g, std::ostream* os) {
  *os << geometry_name(g);
}

class PackedWindowProperty : public ::testing::TestWithParam<WindowGeometry> {};

TEST_P(PackedWindowProperty, BuildMatchesBitByBitReferenceAtEveryLevel) {
  // K line rows of a padded width that leaves rows ending mid-word, filled
  // by runs of random length (so runs start mid-word); every window of the
  // row is built for several ring phases and compared bit by bit with the
  // codes it covers, and its dot at every SIMD level with the plain integer
  // reference_pm1_dot, at both plane counts.
  const WindowGeometry g = GetParam();
  Rng rng(0x51de + static_cast<std::uint64_t>(g.c * 131 + g.k * 7 + g.stride));
  const int wp = g.k + 3 * g.stride + 1;
  const std::int64_t row_bits = static_cast<std::int64_t>(wp) * g.c;
  const std::int64_t seg = static_cast<std::int64_t>(g.k) * g.c;
  const std::int64_t values = seg * g.k;
  const int out_w = (wp - g.k) / g.stride + 1;
  for (int planes = 1; planes <= BitPlaneLineBuffer::kMaxPlanes; ++planes) {
    BitPlaneLineBuffer lines(planes, g.k, row_bits);
    std::vector<std::vector<std::int32_t>> rows;
    for (int r = 0; r < g.k; ++r) {
      lines.clear_row(r);
      rows.push_back(noisy_codes(row_bits, rng));
      for (std::int64_t pos = 0; pos < row_bits;) {
        const std::int64_t n = std::min<std::int64_t>(
            row_bits - pos, 1 + static_cast<std::int64_t>(rng.next_below(97)));
        lines.pack_run(simd::vec_ops_at(simd::Level::kScalar), r, pos,
                       std::span<const std::int32_t>(rows.back())
                           .subspan(static_cast<std::size_t>(pos),
                                    static_cast<std::size_t>(n)));
        pos += n;
      }
    }
    const auto mask = static_cast<std::int32_t>((1U << planes) - 1U);
    PackedFilters filter(values, 1);
    std::vector<std::int8_t> w_pm1(static_cast<std::size_t>(values));
    {
      BitVector w(values);
      for (std::int64_t i = 0; i < values; ++i) {
        const bool bit = rng.next_bool();
        w.set(i, bit);
        w_pm1[static_cast<std::size_t>(i)] = bit ? 1 : -1;
      }
      filter.set(0, filter_words(w));
    }
    PackedWindow win(values, planes);
    for (int top = 0; top < g.k; ++top) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (const simd::Level level : simd::available_levels()) {
        const simd::VecOps& ops = simd::vec_ops_at(level);
        const std::int64_t src = static_cast<std::int64_t>(ox) * g.stride * g.c;
        win.build(ops, lines, top, src, seg);
        std::vector<std::int32_t> codes;
        for (int dy = 0; dy < g.k; ++dy) {
          const auto& row = rows[static_cast<std::size_t>((top + dy) % g.k)];
          for (std::int64_t i = 0; i < seg; ++i) {
            codes.push_back(row[static_cast<std::size_t>(src + i)] & mask);
          }
        }
        for (std::int64_t i = 0; i < win.plane_words() * kWordBits; ++i) {
          for (int p = 0; p < planes; ++p) {
            const bool expect =
                i < values &&
                ((codes[static_cast<std::size_t>(i)] >> p) & 1) != 0;
            ASSERT_EQ(interleaved_bit(win.data(), planes, i, p), expect)
                << simd::level_name(level) << " planes=" << planes
                << " top=" << top << " ox=" << ox << " bit=" << i
                << " plane=" << p;
          }
        }
        std::int32_t out = 0;
        win.dot(ops, filter, &out);
        ASSERT_EQ(out, reference_pm1_dot(w_pm1, codes))
            << simd::level_name(level) << " planes=" << planes
            << " top=" << top << " ox=" << ox;
        }
      }
    }
  }
}

std::vector<WindowGeometry> window_geometries() {
  std::vector<WindowGeometry> out;
  for (const int c : {1, 3, 5, 63, 64, 65, 130}) {
    for (const int k : {1, 2, 3, 5, 7, 11}) {
      for (const int stride : {1, 2, 4}) out.push_back({c, k, stride});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PackedWindowProperty, ::testing::ValuesIn(window_geometries()),
    [](const ::testing::TestParamInfo<WindowGeometry>& param_info) {
      return geometry_name(param_info.param);
    });

}  // namespace
}  // namespace qnn
