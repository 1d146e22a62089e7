// vec_ops seam: every compiled+supported SIMD level must agree bit-exactly
// with the scalar reference on random buffers, including window lengths
// that exercise every tail-handling path, filter counts that leave
// filter-lane groups (8 bit-plane filters, 16 byte-path filters) partly
// padded, both bit-planes and both byte-planes, and plane-pack chunks of
// every length and offset, and the ring narrowing/widening conversions at
// every length. Also pins the dispatch contract: kScalar is
// always present, and set_level overrides whatever auto/env dispatch
// picked.
#include "core/simd/vec_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/bitops.h"
#include "core/bitplanes.h"
#include "core/bitvector.h"
#include "core/packed_planes.h"
#include "core/rng.h"
#include "quant/threshold.h"

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
  // window) and a 3x3x256 window's 36 to a 3x3x512 window's 72, odd
  // lengths included; filter counts below, at and around the 8-lane group,
  // with every partial last group (1, 5, 7, 9, 10, 63), and around the
  // AVX-512 32-filter block: every remainder of a block (20, 24, 25, 31,
  // 32, 33, 40, 56: a short block, a full one, one to three single groups
  // after it). Exactly O responses are written: a block's worth of
  // canaries after out[O] stays untouched.
  constexpr std::int32_t kCanary = 0x5e5e5e5e;
  constexpr std::size_t kGuard = 4 * simd::kFilterLanes;
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0xabc3);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{9},
                              std::size_t{17}, std::size_t{36},
                              std::size_t{72}}) {
    for (int planes = 1; planes <= simd::kMaxPlanes; ++planes) {
      for (const int filters :
           {1, 5, 7, 8, 9, 10, 20, 24, 25, 31, 32, 33, 40, 56, 63, 64,
            1000}) {
        const DotCase c = random_dot_case(n, planes, filters, rng);
        const auto o = static_cast<std::size_t>(filters);
        std::vector<std::int32_t> expect(o + kGuard, kCanary);
        scalar.dot_window(c.window.data(), n, planes, c.filters.data(), o,
                          expect.data(), nullptr, nullptr);
        const auto tail = expect.begin() + static_cast<std::ptrdiff_t>(o);
        ASSERT_TRUE(std::all_of(tail, expect.end(),
                                [](std::int32_t v) { return v == kCanary; }))
            << "scalar wrote past out[O]";
        for (const simd::Level level : simd::available_levels()) {
          std::vector<std::int32_t> got(o + kGuard, kCanary);
          simd::vec_ops_at(level).dot_window(c.window.data(), n, planes,
                                             c.filters.data(), o, got.data(),
                                             nullptr, nullptr);
          ASSERT_EQ(got, expect)
              << simd::level_name(level) << " n=" << n << " planes=" << planes
              << " filters=" << filters;
        }
      }
    }
  }
}

/// Guard entries after each response buffer of a paired call.
constexpr std::size_t kPairGuard = 32;
constexpr std::int32_t kPairCanary = 0x5e5e5e5e;

/// Filter counts for the paired-dot suites: a lone filter, partial and
/// whole 8- and 16-filter groups, partial and whole AVX-512 blocks, and a
/// 1000-class head.
constexpr int kPairFilters[] = {1, 5, 7, 8, 9, 17, 33, 56, 64, 1000};

TEST(VecOps, PairedDotWindowEqualsTwoSingleCalls) {
  // One call with a second window must write what two single calls write:
  // each window's O responses into its own buffer, nothing past either
  // (a 32-entry guard after both), at every level; the windows differ.
  Rng rng(0xa1a2);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{9}, std::size_t{36}, std::size_t{72}}) {
    for (int planes = 1; planes <= simd::kMaxPlanes; ++planes) {
      for (const int filters : kPairFilters) {
        const DotCase c = random_dot_case(n, planes, filters, rng);
        const std::vector<Word> second =
            random_words(n * static_cast<std::size_t>(planes), rng);
        ASSERT_NE(second, c.window);
        const auto o = static_cast<std::size_t>(filters);
        for (const simd::Level level : simd::available_levels()) {
          const auto& ops = simd::vec_ops_at(level);
          std::vector<std::int32_t> want1(o), want2(o);
          ops.dot_window(c.window.data(), n, planes, c.filters.data(), o,
                         want1.data(), nullptr, nullptr);
          ops.dot_window(second.data(), n, planes, c.filters.data(), o,
                         want2.data(), nullptr, nullptr);
          std::vector<std::int32_t> got1(o + kPairGuard, kPairCanary);
          std::vector<std::int32_t> got2(o + kPairGuard, kPairCanary);
          ops.dot_window(c.window.data(), n, planes, c.filters.data(), o,
                         got1.data(), second.data(), got2.data());
          want1.resize(o + kPairGuard, kPairCanary);
          want2.resize(o + kPairGuard, kPairCanary);
          ASSERT_EQ(got1, want1) << simd::level_name(level) << " n=" << n
                                 << " planes=" << planes
                                 << " filters=" << filters;
          ASSERT_EQ(got2, want2) << simd::level_name(level) << " n=" << n
                                 << " planes=" << planes
                                 << " filters=" << filters;
        }
      }
    }
  }
}

TEST(VecOps, DotWindowTakesFiltersOffTheCacheLine) {
  // PackedFilters banks start on a 64-byte boundary, but dot_window does
  // not require it: the same filters copied to one word past a boundary
  // (every weight vector then splits a cache line) give the same
  // responses at every level, for both plane counts and a partial block.
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0x0ff1);
  constexpr std::size_t kN = 9;
  constexpr int kFilters = 57;
  for (int planes = 1; planes <= simd::kMaxPlanes; ++planes) {
    const DotCase c = random_dot_case(kN, planes, kFilters, rng);
    const std::size_t bank = c.filters.padded_count() * kN;
    std::vector<Word, CacheLineAllocator<Word>> shifted(bank + 1);
    std::copy_n(c.filters.data(), bank, shifted.begin() + 1);
    const Word* w = shifted.data() + 1;
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(w) % 64, sizeof(Word));
    std::vector<std::int32_t> expect(kFilters);
    scalar.dot_window(c.window.data(), kN, planes, c.filters.data(), kFilters,
                      expect.data(), nullptr, nullptr);
    for (const simd::Level level : simd::available_levels()) {
      std::vector<std::int32_t> got(kFilters);
      simd::vec_ops_at(level).dot_window(c.window.data(), kN, planes, w,
                                         kFilters, got.data(), nullptr,
                                         nullptr);
      EXPECT_EQ(got, expect) << simd::level_name(level)
                             << " planes=" << planes;
    }
  }
}

TEST(VecOps, DotWindowImplementsPm1PlaneSum) {
  // out[f] = sum_p (2*popcount(w_f & a_p) - popcount(a_p)) << p, the
  // XNOR-popcount dot of §III-B1 summed over bit-planes, at every level.
  // Two planes of two words, plane-interleaved [word][plane]; two real
  // filters, six zero pad lanes (swept here by asking for all eight).
  const std::vector<Word> window = {0b1011, 0b0110,  // word 0 of planes 0, 1
                                    0, 1};           // word 1 of planes 0, 1
  // plane 0 = {0b1011, 0}: pop 3; plane 1 = {0b0110, 1}: pop 3.
  PackedFilters filters(2 * kWordBits, 2);
  filters.set(0, std::vector<Word>{0b0011, 0});
  filters.set(1, std::vector<Word>{~Word{0}, ~Word{0}});
  ASSERT_EQ(filters.padded_count(), 8u);
  ASSERT_EQ(filters.count(), 2u);
  for (const simd::Level level : simd::available_levels()) {
    std::int32_t out[8];
    simd::vec_ops_at(level).dot_window(window.data(), 2, 2, filters.data(),
                                       filters.padded_count(), out, nullptr,
                                       nullptr);
    // f0: plane 0 on=2 -> 4-3 = 1; plane 1 on=1 -> (2-3)<<1 = -2. Sum -1.
    EXPECT_EQ(out[0], -1) << simd::level_name(level);
    // f1: plane 0 on=3 -> 3; plane 1 on=3 -> 3<<1 = 6. Sum 9.
    EXPECT_EQ(out[1], 9) << simd::level_name(level);
    // Zero pad filters agree with no bit: -(3 + (3<<1)) = -9.
    for (int l = 2; l < 8; ++l) {
      EXPECT_EQ(out[l], -9) << simd::level_name(level) << " lane " << l;
    }
  }
}

// ---------------------------------------------------------------- dot_bytes

/// A byte-path window of `values` codes in `planes` byte-planes, each plane
/// zero-padded to whole quads, and `filters` random 1-bit filters.
struct ByteDotCase {
  ByteFilters filters;
  std::vector<std::uint8_t> window;
};

ByteDotCase random_byte_dot_case(std::size_t values, int planes,
                                 int filters, Rng& rng) {
  const auto n = static_cast<std::int64_t>(values);
  ByteDotCase c{ByteFilters(n, filters), {}};
  const std::size_t plane_size = 4 * c.filters.quads();
  c.window.assign(static_cast<std::size_t>(planes) * plane_size, 0);
  for (int q = 0; q < planes; ++q) {
    for (std::size_t i = 0; i < values; ++i) {
      c.window[static_cast<std::size_t>(q) * plane_size + i] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
  }
  std::vector<Word> words(static_cast<std::size_t>(words_for_bits(n)));
  for (int f = 0; f < filters; ++f) {
    for (auto& w : words) w = rng.next_u64();
    if (n % kWordBits != 0) {
      words.back() &= low_mask(static_cast<int>(n % kWordBits));
    }
    c.filters.set(f, words);
  }
  return c;
}

TEST(VecOps, DotBytesMatchesScalarAtEveryLevel) {
  // Value counts from one through VGG's conv_0 (27), ResNet's conv_0 (147,
  // and one past it: a whole last quad), 513 (a word and a quad past
  // 512) to a 3x3x512 window; filter counts around the 16-filter group
  // (and AVX-512's four-group block: 64, 1000), each partial last group
  // included; one and two byte-planes. Exactly O responses are written: a
  // canary after out[O] stays untouched.
  constexpr std::int32_t kCanary = 0x5e5e5e5e;
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0xb17e5);
  for (const std::size_t values :
       {std::size_t{1}, std::size_t{3}, std::size_t{27}, std::size_t{147},
        std::size_t{148}, std::size_t{513}, std::size_t{4608}}) {
    for (int planes = 1; planes <= simd::kMaxBytePlanes; ++planes) {
      for (const int filters : {1, 5, 15, 16, 17, 64, 1000}) {
        const ByteDotCase c = random_byte_dot_case(values, planes, filters, rng);
        const auto o = static_cast<std::size_t>(filters);
        std::vector<std::int32_t> expect(o + 1, kCanary);
        scalar.dot_bytes(c.window.data(), c.filters.quads(), planes,
                         c.filters.data(), o, expect.data(), nullptr, nullptr);
        ASSERT_EQ(expect[o], kCanary) << "scalar wrote past out[O]";
        for (const simd::Level level : simd::available_levels()) {
          std::vector<std::int32_t> got(o + 1, kCanary);
          simd::vec_ops_at(level).dot_bytes(c.window.data(), c.filters.quads(),
                                            planes, c.filters.data(), o,
                                            got.data(), nullptr, nullptr);
          ASSERT_EQ(got, expect)
              << simd::level_name(level) << " values=" << values
              << " planes=" << planes << " filters=" << filters;
        }
      }
    }
  }
}

TEST(VecOps, PairedDotBytesEqualsTwoSingleCalls) {
  // The byte dot's pair contract, as dot_window's above: 1, 7 (VGG's
  // conv_0), 37 (ResNet's conv_0) and 1152 (a 3x3x512 window) quads, one
  // and two byte-planes, two different windows, a guard after both
  // outputs, at every level.
  Rng rng(0xa1a3);
  for (const std::size_t values : {std::size_t{1}, std::size_t{27},
                                   std::size_t{147}, std::size_t{4608}}) {
    for (int planes = 1; planes <= simd::kMaxBytePlanes; ++planes) {
      for (const int filters : kPairFilters) {
        const ByteDotCase c =
            random_byte_dot_case(values, planes, filters, rng);
        const ByteDotCase d = random_byte_dot_case(values, planes, 1, rng);
        ASSERT_NE(d.window, c.window);
        const std::size_t quads = c.filters.quads();
        const auto o = static_cast<std::size_t>(filters);
        for (const simd::Level level : simd::available_levels()) {
          const auto& ops = simd::vec_ops_at(level);
          std::vector<std::int32_t> want1(o), want2(o);
          ops.dot_bytes(c.window.data(), quads, planes, c.filters.data(), o,
                        want1.data(), nullptr, nullptr);
          ops.dot_bytes(d.window.data(), quads, planes, c.filters.data(), o,
                        want2.data(), nullptr, nullptr);
          std::vector<std::int32_t> got1(o + kPairGuard, kPairCanary);
          std::vector<std::int32_t> got2(o + kPairGuard, kPairCanary);
          ops.dot_bytes(c.window.data(), quads, planes, c.filters.data(), o,
                        got1.data(), d.window.data(), got2.data());
          want1.resize(o + kPairGuard, kPairCanary);
          want2.resize(o + kPairGuard, kPairCanary);
          ASSERT_EQ(got1, want1) << simd::level_name(level)
                                 << " values=" << values
                                 << " planes=" << planes
                                 << " filters=" << filters;
          ASSERT_EQ(got2, want2) << simd::level_name(level)
                                 << " values=" << values
                                 << " planes=" << planes
                                 << " filters=" << filters;
        }
      }
    }
  }
}

TEST(VecOps, DotBytesImplementsPm1Sum) {
  // out[f] = sum_i w_f,i * code_i, the +-1 dot of reference_pm1_dot, at
  // every level: 16-bit codes of 0xFFFF (both byte-planes full) over a
  // window long enough that 2 * (sum of the +1 bytes) passes 2^31 and
  // wraps, against all-+1, all--1 and alternating weights.
  constexpr std::int64_t kValues = 16400;  // 2 * 65535 * 16400 > 2^31
  const std::vector<std::int32_t> codes(static_cast<std::size_t>(kValues),
                                        0xFFFF);
  const std::int8_t signs[3][2] = {{1, 1}, {-1, -1}, {1, -1}};
  ByteFilters filters(kValues, 3);
  std::vector<std::vector<std::int8_t>> w_pm1;
  for (int f = 0; f < 3; ++f) {
    BitVector w(kValues);
    w_pm1.emplace_back(static_cast<std::size_t>(kValues));
    for (std::int64_t i = 0; i < kValues; ++i) {
      const std::int8_t s = signs[f][i % 2];
      w.set(i, s > 0);
      w_pm1.back()[static_cast<std::size_t>(i)] = s;
    }
    std::vector<Word> words(static_cast<std::size_t>(w.words()));
    for (std::int64_t j = 0; j < w.words(); ++j) {
      words[static_cast<std::size_t>(j)] = w.word(j);
    }
    filters.set(f, words);
  }
  ByteLineBuffer lines(16, 1, kValues);
  lines.pack_run(0, 0, codes);
  ByteWindow window(kValues, lines.planes());
  window.build(lines, 0, 0, kValues);
  ASSERT_EQ(window.planes(), 2);
  for (const simd::Level level : simd::available_levels()) {
    std::int32_t out[3];
    window.dot(simd::vec_ops_at(level), filters, out);
    for (int f = 0; f < 3; ++f) {
      EXPECT_EQ(out[f], reference_pm1_dot(w_pm1[static_cast<std::size_t>(f)],
                                          codes))
          << simd::level_name(level) << " filter " << f;
    }
  }
  EXPECT_EQ(reference_pm1_dot(w_pm1[0], codes), 65535 * kValues);
}

// --------------------------------------------------------------- pack_codes

TEST(VecOps, PackCodesMatchesScalarAtEveryLevel) {
  // Every plane count (1 and 2), every chunk length a word can take at offsets 0, 1,
  // 31 and 63, codes with every bit of 32 random (negative ones and bits
  // at or above the plane count included: those must not leak), into
  // destination words that already hold random bits (which the OR keeps).
  // Each chunk is copied to the end of an exactly sized heap vector, so
  // an over-read past codes[n) is an ASan report. The scalar level is
  // checked against the same bit-by-bit reference as the others.
  Rng rng(0xabc5);
  for (int planes = 1; planes <= simd::kMaxPlanes; ++planes) {
    const auto np = static_cast<std::size_t>(planes);
    for (const int off : {0, 1, 31, 63}) {
      for (int n = 1; n <= kWordBits - off; ++n) {
        std::vector<std::int32_t> codes(static_cast<std::size_t>(n));
        for (auto& c : codes) c = static_cast<std::int32_t>(rng.next_u64());
        // One word past the last plane: nothing may touch it.
        const std::vector<Word> before = random_words(np + 1, rng);
        // Reference: the bits one at a time.
        std::vector<Word> expect = before;
        for (int i = 0; i < n; ++i) {
          const auto code =
              static_cast<std::uint32_t>(codes[static_cast<std::size_t>(i)]);
          for (std::size_t p = 0; p < np; ++p) {
            expect[p] |= static_cast<Word>((code >> p) & 1U) << (off + i);
          }
        }
        for (const simd::Level level : simd::available_levels()) {
          std::vector<Word> got = before;
          simd::vec_ops_at(level).pack_codes(codes.data(), n, planes, off,
                                             got.data());
          ASSERT_EQ(got, expect) << simd::level_name(level)
                                 << " planes=" << planes << " off=" << off
                                 << " n=" << n;
        }
      }
    }
  }
}

// ------------------------------------------------------- ring conversions

/// Every level narrows to exactly the low byte/word (two's complement) and
/// sign-extends back, at every length 0..80 (every vector main loop and
/// tail), from an odd offset, over values with all 32 bits random. Inputs
/// and outputs sit at the end of exactly sized heap vectors, so an access
/// past element n is an ASan report.
TEST(VecOps, RingConversionsMatchScalarAtEveryLevel) {
  Rng rng(0xc0de);
  for (std::size_t n = 0; n <= 80; ++n) {
    std::vector<std::int32_t> wide(n + 1);
    for (auto& v : wide) v = static_cast<std::int32_t>(rng.next_u64());
    const std::int32_t* src = wide.data() + 1;
    std::vector<std::int8_t> b8(n);
    std::vector<std::int16_t> b16(n);
    for (std::size_t i = 0; i < n; ++i) {
      b8[i] = static_cast<std::int8_t>(src[i]);
      b16[i] = static_cast<std::int16_t>(src[i]);
    }
    for (const simd::Level level : simd::available_levels()) {
      const simd::VecOps& ops = simd::vec_ops_at(level);
      std::vector<std::int8_t> got8(n);
      std::vector<std::int16_t> got16(n);
      ops.narrow_i8(src, n, got8.data());
      ops.narrow_i16(src, n, got16.data());
      ASSERT_EQ(got8, b8) << simd::level_name(level) << " n=" << n;
      ASSERT_EQ(got16, b16) << simd::level_name(level) << " n=" << n;
      std::vector<std::int32_t> back(n);
      ops.widen_i8(b8.data(), n, back.data());
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(back[i], b8[i]) << i;
      ops.widen_i16(b16.data(), n, back.data());
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(back[i], b16[i]) << i;
    }
  }
}

// ---------------------------------------------------------- threshold_codes

constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();

/// `channels` BatchNorm channels cycling through every sign class of the
/// folded staircase: +1, -1, constant (zero slope), and +1 / -1 slopes so
/// flat that every threshold saturates at INT32_MAX or INT32_MIN.
ThresholdLayer mixed_sign_layer(int channels, int bits, Rng& rng) {
  BnLayerParams bn(channels);
  for (int c = 0; c < channels; ++c) {
    BnParams& p = bn.at(c);
    p.mu = static_cast<float>((rng.next_double() - 0.5) * 400.0);
    p.beta = static_cast<float>((rng.next_double() - 0.5) * 8.0);
    switch (c % 7) {
      case 0: p.gamma = 0.5f + static_cast<float>(rng.next_double()); break;
      case 1: p.gamma = -0.5f - static_cast<float>(rng.next_double()); break;
      case 2:
        p.gamma = 0.0f;
        p.beta = static_cast<float>(rng.next_double() * (1 << bits) * 2.0);
        break;
      case 3: p.gamma = 1e-7f; p.beta = -1e3f; break;   // all INT32_MAX
      case 4: p.gamma = 1e-7f; p.beta = 1e3f; break;    // all INT32_MIN
      case 5: p.gamma = -1e-7f; p.beta = -1e3f; break;  // -1, INT32_MAX
      default: p.gamma = -1e-7f; p.beta = 1e3f; break;  // -1, INT32_MIN
    }
  }
  return ThresholdLayer::fold(bn, ActQuantizer(bits, 0.75));
}

/// Pre-activations hitting every comparator edge of channel `t` — each
/// threshold T and -T (a negative slope compares -a) exactly and +-1 —
/// plus INT32_MIN, INT32_MAX, 0 and random values.
std::vector<std::int32_t> threshold_probes(const ThresholdActivation& t,
                                           Rng& rng) {
  std::vector<std::int64_t> wide = {kI32Min, kI32Min + 1, kI32Max,
                                    kI32Max - 1, 0, -1, 1};
  for (int i = 0; i < 16; ++i) {
    wide.push_back(static_cast<std::int64_t>(rng.next_below(1u << 22)) -
                   (1 << 21));
  }
  for (const std::int32_t th : t.thresholds()) {
    for (const std::int64_t d : {-1, 0, 1}) {
      wide.push_back(std::int64_t{th} + d);
      wide.push_back(-std::int64_t{th} + d);
    }
  }
  std::vector<std::int32_t> out;
  for (const std::int64_t v : wide) {
    if (v >= kI32Min && v <= kI32Max) {
      out.push_back(static_cast<std::int32_t>(v));
    }
  }
  return out;
}

TEST(VecOps, ThresholdCodesMatchBinarySearchAtEveryLevel) {
  // Every channel of every probe vector against the literal hardware
  // binary search, at 1, 2, 4 and 8 bits and channel counts around the
  // 8- and 16-lane vector widths, so every masked tail is exercised.
  Rng rng(0x7c0de5);
  for (const int bits : {1, 2, 4, 8}) {
    for (const int channels : {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64}) {
      const ThresholdLayer layer = mixed_sign_layer(channels, bits, rng);
      if (channels >= 7) {
        ASSERT_EQ(layer.at(0).sign(), 1);
        ASSERT_EQ(layer.at(1).sign(), -1);
        ASSERT_TRUE(layer.at(2).is_constant());
        ASSERT_EQ(layer.at(3).thresholds().front(), kI32Max);
        ASSERT_EQ(layer.at(4).thresholds().back(), kI32Min);
        ASSERT_EQ(layer.at(5).sign(), -1);
        ASSERT_EQ(layer.at(6).sign(), -1);
        ASSERT_TRUE(layer.at(5).thresholds().front() == kI32Max ||
                    layer.at(6).thresholds().front() == kI32Max);
        ASSERT_TRUE(layer.at(5).thresholds().back() == kI32Min ||
                    layer.at(6).thresholds().back() == kI32Min);
      }
      const ThresholdTable table(layer);
      ASSERT_EQ(table.levels(), (1 << bits) - 1);
      const auto c_count = static_cast<std::size_t>(channels);
      std::vector<std::vector<std::int32_t>> probes;
      std::size_t rounds = 0;
      for (int c = 0; c < channels; ++c) {
        probes.push_back(threshold_probes(layer.at(c), rng));
        rounds = std::max(rounds, probes.back().size());
      }
      for (const simd::Level level : simd::available_levels()) {
        const simd::VecOps& ops = simd::vec_ops_at(level);
        // Round r puts the r-th probe of every channel in its lane, so
        // each channel meets each of its own edges.
        for (std::size_t r = 0; r < rounds; ++r) {
          std::vector<std::int32_t> a(c_count);
          for (std::size_t c = 0; c < c_count; ++c) {
            a[c] = probes[c][r % probes[c].size()];
          }
          std::vector<std::int32_t> codes(c_count, -1);
          table.eval(ops, 0, a, codes.data());
          for (int c = 0; c < channels; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            ASSERT_EQ(codes[ci], layer.at(c).eval_binary_search(a[ci]))
                << ops.name << " bits=" << bits << " channels=" << channels
                << " channel=" << c << " a=" << a[ci];
          }
        }
      }
    }
  }
}

TEST(VecOps, ThresholdCodesOnStretchesInPlace) {
  // A BnAct burst starts and ends mid-pixel: stretches of consecutive
  // channels from any offset, written over their own input, must give the
  // codes of the whole-pixel evaluation — and write nothing past their
  // end (a vector's worth of sentinels follows each stretch).
  Rng rng(0x7c0de6);
  const int channels = 37;
  const ThresholdLayer layer = mixed_sign_layer(channels, 2, rng);
  const ThresholdTable table(layer);
  std::vector<std::int32_t> a(static_cast<std::size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    const std::vector<std::int32_t> probes =
        threshold_probes(layer.at(c), rng);
    a[static_cast<std::size_t>(c)] =
        probes[static_cast<std::size_t>(rng.next_below(probes.size()))];
  }
  for (const simd::Level level : simd::available_levels()) {
    const simd::VecOps& ops = simd::vec_ops_at(level);
    for (int c0 = 0; c0 < channels; c0 += 5) {
      for (int len = 0; c0 + len <= channels; len += 6) {
        constexpr std::int32_t kSentinel = 0x5e5e5e5e;
        std::vector<std::int32_t> buf(a.begin() + c0, a.begin() + c0 + len);
        buf.resize(buf.size() + 16, kSentinel);
        table.eval(ops, c0,
                   std::span<const std::int32_t>(buf).first(
                       static_cast<std::size_t>(len)),
                   buf.data());
        for (std::size_t i = static_cast<std::size_t>(len); i < buf.size();
             ++i) {
          ASSERT_EQ(buf[i], kSentinel) << ops.name << " c0=" << c0
                                       << " len=" << len << " wrote past";
        }
        for (int i = 0; i < len; ++i) {
          const auto ai = static_cast<std::size_t>(c0 + i);
          ASSERT_EQ(buf[static_cast<std::size_t>(i)],
                    layer.at(c0 + i).eval_binary_search(a[ai]))
              << ops.name << " c0=" << c0 << " len=" << len << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qnn
