// AVX2 path: 4-word AND + vpshufb nibble-LUT popcount (the classic Mula
// kernel), summed with vpsadbw. The window dot runs a filter-lane group as
// two 4-lane halves, so no horizontal sum is ever needed there; the plane
// pack moves one plane of eight codes per vpslld + vmovmskps. The byte dot
// expands each half of a weight-mask word into 32 bytes of 0/-1 (vpshufb
// spreads a mask byte over eight lanes, vpcmpeqb tests one bit in each),
// once for a pair of windows, and multiplies them against four broadcast
// window bytes with vpmaddubsw, widening with vpmaddwd. A block of windows
// runs the window dot window by window and the byte dot pair by pair. The
// ring conversions narrow by masking each value to its low byte or word,
// so the saturating vpackus* packs are exact truncations, and widen with
// vpmovsxbd/vpmovsxwd; the pooling reduction takes eight values per
// vpmaxsd or vpaddd. Built with a per-function target attribute (AVX2 +
// POPCNT) so the TU compiles under the generic -march; the dispatcher only
// hands these functions out after a CPUID check.
#include "core/simd/vec_ops_impl.h"

#if defined(__x86_64__) && defined(QNN_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace qnn::simd::detail {
namespace {

#define QNN_AVX2_TARGET target("avx2,popcnt")

__attribute__((QNN_AVX2_TARGET)) inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Eight codes per register (the chunk tail is a masked load, so nothing
/// past codes[n) is read). vpslld moves the top plane's bit into every
/// lane's sign bit, dropping the bits at or above `planes`; then each
/// plane, high to low, is one vmovmskps and a shift by one.
__attribute__((QNN_AVX2_TARGET)) void pack_codes_avx2(
    const std::int32_t* codes, int n, int planes, int off, Word* dst) {
  const auto np = static_cast<std::size_t>(planes);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m128i top = _mm_cvtsi32_si128(32 - planes);
  Word chunk[kMaxPlanes] = {};
  for (int j = 0; j < n; j += 8) {
    __m256i v =
        n - j >= 8
            ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + j))
            : _mm256_maskload_epi32(
                  codes + j,
                  _mm256_cmpgt_epi32(_mm256_set1_epi32(n - j), lane));
    v = _mm256_sll_epi32(v, top);
    for (std::size_t p = np; p-- > 0;) {
      chunk[p] |= static_cast<Word>(static_cast<unsigned>(
                      _mm256_movemask_ps(_mm256_castsi256_ps(v))))
                  << j;
      v = _mm256_slli_epi32(v, 1);
    }
  }
  for (std::size_t p = 0; p < np; ++p) dst[p] |= chunk[p] << off;
}

__attribute__((QNN_AVX2_TARGET)) void dot_window_one(
    const Word* a, std::size_t n, int planes, const Word* w,
    std::size_t filters, std::int32_t* out) {
  const auto np = static_cast<std::size_t>(planes);
  std::int64_t pops[kMaxPlanes] = {};
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < np; ++p) {
      pops[p] += __builtin_popcountll(a[j * np + p]);
    }
  }
  // Byte counts reach at most 8 per word, so up to 31 words accumulate in
  // epi8 lanes before one vpsadbw folds them into the 64-bit lane sums.
  constexpr std::size_t kByteRun = 31;
  const __m256i zero = _mm256_setzero_si256();
  // Low dwords of four int64 lanes to the low half (truncating narrowing).
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t f = 0; f < filters; f += kFilterLanes) {
    const Word* wg = w + f * n;
    __m256i sum_lo = zero;  // lanes 0..3
    __m256i sum_hi = zero;  // lanes 4..7
    // Horner over the planes, high to low: sum = 2*sum + (2*on_p - pop_p)
    // builds sum_p (2*on_p - pop_p) << p with adds only.
    for (int p = planes - 1; p >= 0; --p) {
      const Word* ap = a + p;
      __m256i on_lo = zero;
      __m256i on_hi = zero;
      for (std::size_t j0 = 0; j0 < n; j0 += kByteRun) {
        const std::size_t j1 = std::min(n, j0 + kByteRun);
        __m256i bytes_lo = zero;
        __m256i bytes_hi = zero;
        for (std::size_t j = j0; j < j1; ++j) {
          const __m256i av =
              _mm256_set1_epi64x(static_cast<long long>(ap[j * np]));
          const Word* wj = wg + j * kFilterLanes;
          bytes_lo = _mm256_add_epi8(
              bytes_lo,
              popcount_bytes(_mm256_and_si256(
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wj)),
                  av)));
          bytes_hi = _mm256_add_epi8(
              bytes_hi,
              popcount_bytes(_mm256_and_si256(
                  _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(wj + 4)),
                  av)));
        }
        on_lo = _mm256_add_epi64(on_lo, _mm256_sad_epu8(bytes_lo, zero));
        on_hi = _mm256_add_epi64(on_hi, _mm256_sad_epu8(bytes_hi, zero));
      }
      const __m256i pop = _mm256_set1_epi64x(pops[p]);
      sum_lo = _mm256_add_epi64(
          _mm256_add_epi64(sum_lo, sum_lo),
          _mm256_sub_epi64(_mm256_add_epi64(on_lo, on_lo), pop));
      sum_hi = _mm256_add_epi64(
          _mm256_add_epi64(sum_hi, sum_hi),
          _mm256_sub_epi64(_mm256_add_epi64(on_hi, on_hi), pop));
    }
    const __m256i v = _mm256_permute2x128_si256(
        _mm256_permutevar8x32_epi32(sum_lo, narrow),
        _mm256_permutevar8x32_epi32(sum_hi, narrow), 0x20);
    const std::size_t lanes = filters - f;
    if (lanes >= kFilterLanes) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + f), v);
    } else {
      _mm256_maskstore_epi32(
          out + f,
          _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                             lane),
          v);
    }
  }
}

/// A block's windows run in turn.
__attribute__((QNN_AVX2_TARGET)) void dot_window_avx2(
    const Word* a, std::size_t n, int planes, const Word* w,
    std::size_t filters, std::int32_t* out, std::size_t count) {
  const std::size_t window = n * static_cast<std::size_t>(planes);
  for (std::size_t i = 0; i < count; ++i) {
    dot_window_one(a + i * window, n, planes, w, filters, out + i * filters);
  }
}

/// Shifts of every lane by `c` (>= 64 yields zero), and loads/stores of
/// the lanes `m` selects.
__attribute__((QNN_AVX2_TARGET)) inline __m256i shr(__m256i v, int c) {
  return _mm256_srl_epi64(v, _mm_cvtsi32_si128(c));
}
__attribute__((QNN_AVX2_TARGET)) inline __m256i shl(__m256i v, int c) {
  return _mm256_sll_epi64(v, _mm_cvtsi32_si128(c));
}
__attribute__((QNN_AVX2_TARGET)) inline __m256i load(__m256i m,
                                                    const Word* p) {
  return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), m);
}
__attribute__((QNN_AVX2_TARGET)) inline void store(__m256i m, Word* p,
                                                  __m256i v) {
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(p), m, v);
}

__attribute__((QNN_AVX2_TARGET)) void build_window_avx2(
    const Word* rows, std::size_t row_size, int k, int top,
    std::int64_t src_bit, std::int64_t seg, int planes, Word* out) {
  const auto np = static_cast<std::size_t>(planes);
  const std::size_t ring = static_cast<std::size_t>(k) * row_size;
  // Every plane in one register; shifts by >= 64 yield zero, so the
  // word-aligned and word-completing cases need no special shifts.
  const __m256i m =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(np)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  __m256i pending = _mm256_setzero_si256();
  int fill = 0;  // bits pending in every plane's next word
  std::size_t at = static_cast<std::size_t>(top) * row_size;
  for (int dy = 0; dy < k; ++dy) {
    const Word* row = rows + at;
    at += row_size;
    if (at == ring) at = 0;
    for (std::int64_t pos = src_bit, end = src_bit + seg; pos < end;) {
      const int n =
          static_cast<int>(std::min<std::int64_t>(end - pos, kWordBits));
      const int soff = static_cast<int>(pos % kWordBits);
      const Word* src = row + static_cast<std::size_t>(pos / kWordBits) * np;
      __m256i bits = shr(load(m, src), soff);
      if (soff + n > kWordBits) {
        bits =
            _mm256_or_si256(bits, shl(load(m, src + np), kWordBits - soff));
      }
      bits = _mm256_and_si256(
          bits, _mm256_set1_epi64x(static_cast<long long>(low_mask(n))));
      pending = _mm256_or_si256(pending, shl(bits, fill));
      fill += n;
      if (fill >= kWordBits) {
        store(m, out, pending);
        out += np;
        fill -= kWordBits;
        pending = shr(bits, n - fill);
      }
      pos += n;
    }
  }
  if (fill != 0) store(m, out, pending);
}

/// 32 bytes of 0/-1 from the 32 mask bits `m`: byte b is -1 iff bit b is
/// set. vpshufb copies mask byte b/8 into byte b (the 32-bit broadcast
/// puts all four mask bytes in both 128-bit lanes), vpcmpeqb tests bit
/// b%8 of it.
__attribute__((QNN_AVX2_TARGET)) inline __m256i expand_mask(std::uint32_t m) {
  const __m256i spread = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
      3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit = _mm256_set1_epi64x(
      static_cast<long long>(0x8040201008040201ULL));
  const __m256i x = _mm256_shuffle_epi8(
      _mm256_set1_epi32(static_cast<std::int32_t>(m)), spread);
  return _mm256_cmpeq_epi8(_mm256_and_si256(x, bit), bit);
}

/// One group of kByteLanes filters, as two 8-filter halves (the low and
/// high 32 bits of each mask word), against kW (1 or 2) windows over kP
/// byte-planes, window x at a + x*kP*4*quads: each half of a mask word is
/// expanded once and meets every plane of every window. vpmaddubsw pairs
/// window bytes with 0/-1 weight bytes into int16 sums of magnitude at
/// most 510, so up to 64 quads accumulate in int16 before one vpmaddwd
/// widens them; acc = -(sum of the bytes whose weight is +1), and
/// out = -2*acc - sum after Horner over the planes, written per window,
/// window x's from out + x*stride on.
template <std::size_t kP, std::size_t kW>
__attribute__((QNN_AVX2_TARGET)) void dot_byte_group(
    const std::uint8_t* a, std::size_t quads, const Word* wg,
    const __m256i (&sum)[kW], std::size_t filters, std::int32_t* out,
    std::size_t stride) {
  constexpr std::size_t kQuadRun = 64;  // 64 * 510 <= INT16_MAX
  const std::size_t len = 4 * quads;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[kW][kP][2];
  for (auto& window : acc) {
    for (auto& plane : window) plane[0] = plane[1] = zero;
  }
  for (std::size_t v0 = 0; v0 < quads; v0 += kQuadRun) {
    const std::size_t v1 = std::min(quads, v0 + kQuadRun);
    __m256i part[kW][kP][2];
    for (auto& window : part) {
      for (auto& plane : window) plane[0] = plane[1] = zero;
    }
    for (std::size_t v = v0; v < v1; ++v) {
      const __m256i lo = expand_mask(static_cast<std::uint32_t>(wg[v]));
      const __m256i hi = expand_mask(static_cast<std::uint32_t>(wg[v] >> 32));
#pragma GCC unroll 2
      for (std::size_t x = 0; x < kW; ++x) {
#pragma GCC unroll 2
        for (std::size_t p = 0; p < kP; ++p) {
          std::int32_t quad;
          std::memcpy(&quad, a + (x * kP + p) * len + 4 * v, sizeof quad);
          const __m256i av = _mm256_set1_epi32(quad);
          part[x][p][0] =
              _mm256_add_epi16(part[x][p][0], _mm256_maddubs_epi16(av, lo));
          part[x][p][1] =
              _mm256_add_epi16(part[x][p][1], _mm256_maddubs_epi16(av, hi));
        }
      }
    }
#pragma GCC unroll 2
    for (std::size_t x = 0; x < kW; ++x) {
#pragma GCC unroll 2
      for (std::size_t p = 0; p < kP; ++p) {
#pragma GCC unroll 2
        for (std::size_t h = 0; h < 2; ++h) {
          acc[x][p][h] = _mm256_add_epi32(
              acc[x][p][h], _mm256_madd_epi16(part[x][p][h], ones));
        }
      }
    }
  }
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t x = 0; x < kW; ++x) {
    for (std::size_t h = 0; h < 2; ++h) {
      __m256i t = acc[x][kP - 1][h];
      for (std::size_t p = kP - 1; p-- > 0;) {
        t = _mm256_add_epi32(_mm256_slli_epi32(t, 8), acc[x][p][h]);
      }
      const __m256i v = _mm256_sub_epi32(
          zero, _mm256_add_epi32(_mm256_add_epi32(t, t), sum[x]));
      const std::size_t first = h * 8;
      if (first >= filters) break;
      const std::size_t lanes = filters - first;
      std::int32_t* const dst = out + x * stride + first;
      if (lanes >= 8) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
      } else {
        _mm256_maskstore_epi32(
            dst,
            _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                               lane),
            v);
      }
    }
  }
}

template <std::size_t kP, std::size_t kW>
__attribute__((QNN_AVX2_TARGET)) void dot_bytes_planes(
    const std::uint8_t* a, std::size_t quads, const Word* w,
    std::size_t filters, std::int32_t* out) {
  // Per window, sum_q 256^q * S_q, S_q by vpsadbw over 32-byte chunks and
  // a scalar tail.
  const std::size_t len = 4 * quads;
  __m256i vsum[kW];
  for (std::size_t x = 0; x < kW; ++x) {
    std::uint32_t sum = 0;
    for (std::size_t p = kP; p-- > 0;) {
      const std::uint8_t* ap = a + (x * kP + p) * len;
      __m256i s = _mm256_setzero_si256();
      std::size_t i = 0;
      for (; i + 32 <= len; i += 32) {
        s = _mm256_add_epi64(
            s,
            _mm256_sad_epu8(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap + i)),
                _mm256_setzero_si256()));
      }
      Word lanes[4];
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), s);
      auto sp = static_cast<std::uint32_t>(lanes[0] + lanes[1] + lanes[2] +
                                           lanes[3]);
      for (; i < len; ++i) sp += ap[i];
      sum = (sum << 8) + sp;
    }
    vsum[x] = _mm256_set1_epi32(static_cast<std::int32_t>(sum));
  }
  for (std::size_t f = 0; f < filters; f += kByteLanes) {
    dot_byte_group<kP, kW>(a, quads, w + f / kByteLanes * quads, vsum,
                           filters - f, out + f, filters);
  }
}

/// A block runs as pairs of windows, and a last window alone: the
/// sixteen ymm registers hold the accumulators of two windows, not more.
__attribute__((QNN_AVX2_TARGET)) void dot_bytes_avx2(
    const std::uint8_t* a, std::size_t quads, int planes, const Word* w,
    std::size_t filters, std::int32_t* out, std::size_t count) {
  const std::size_t window = 4 * quads * static_cast<std::size_t>(planes);
  for (std::size_t i = 0; i < count; i += 2) {
    const bool pair = count - i >= 2;
    (planes == 1 ? (pair ? dot_bytes_planes<1, 2> : dot_bytes_planes<1, 1>)
                 : (pair ? dot_bytes_planes<2, 2> : dot_bytes_planes<2, 1>))(
        a + i * window, quads, w, filters, out + i * filters);
  }
}

/// Eight channels per register; the channel tail is a masked load and
/// store. A lane's code starts at `levels` and each level whose threshold
/// lies above v_i (vpcmpgtd: -1) takes one off.
__attribute__((QNN_AVX2_TARGET)) void threshold_codes_avx2(
    const std::int32_t* a, std::size_t n, const std::int32_t* sign,
    const std::int32_t* t, std::size_t stride, int levels,
    std::int32_t* codes) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i m = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::min<std::size_t>(8, n - i))),
        lane);
    const __m256i s = _mm256_maskload_epi32(sign + i, m);
    // (a ^ flip) & keep: flip = s >> 31 complements the negative lanes,
    // keep clears the constant (s == 0) ones.
    const __m256i v = _mm256_andnot_si256(
        _mm256_cmpeq_epi32(s, zero),
        _mm256_xor_si256(_mm256_maskload_epi32(a + i, m),
                         _mm256_srai_epi32(s, 31)));
    __m256i code = _mm256_set1_epi32(levels);
    const std::int32_t* tl = t + i;
    for (int l = 0; l < levels; ++l, tl += stride) {
      code = _mm256_add_epi32(
          code, _mm256_cmpgt_epi32(_mm256_maskload_epi32(tl, m), v));
    }
    _mm256_maskstore_epi32(codes + i, m, code);
  }
}

/// Eight values, each masked by `low` (to its low byte or word).
__attribute__((QNN_AVX2_TARGET)) inline __m256i load_low(
    const std::int32_t* src, __m256i low) {
  return _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)), low);
}

/// Thirty-two values per four loads: masked to their low bytes, two
/// vpackusdw and one vpackuswb pack them lane by lane, and one vpermd puts
/// the eight 4-byte runs back in order; the (< 32) tail value by value.
__attribute__((QNN_AVX2_TARGET)) void narrow_i8_avx2(
    const std::int32_t* src, std::size_t n, std::int8_t* dst) {
  const __m256i low = _mm256_set1_epi32(0xff);
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ab = _mm256_packus_epi32(load_low(src + i, low),
                                           load_low(src + i + 8, low));
    const __m256i cd = _mm256_packus_epi32(load_low(src + i + 16, low),
                                           load_low(src + i + 24, low));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_permutevar8x32_epi32(_mm256_packus_epi16(ab, cd), order));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::int8_t>(src[i]);
}

/// Sixteen values per two loads: masked to their low words, one vpackusdw
/// packs them lane by lane and one vpermq restores their order; the
/// (< 16) tail value by value.
__attribute__((QNN_AVX2_TARGET)) void narrow_i16_avx2(
    const std::int32_t* src, std::size_t n, std::int16_t* dst) {
  const __m256i low = _mm256_set1_epi32(0xffff);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_permute4x64_epi64(
            _mm256_packus_epi32(load_low(src + i, low),
                                load_low(src + i + 8, low)),
            0xd8));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::int16_t>(src[i]);
}

__attribute__((QNN_AVX2_TARGET)) void widen_i8_avx2(const std::int8_t* src,
                                                    std::size_t n,
                                                    std::int32_t* dst) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i))));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

__attribute__((QNN_AVX2_TARGET)) void widen_i16_avx2(const std::int16_t* src,
                                                     std::size_t n,
                                                     std::int32_t* dst) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_cvtepi16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i))));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

/// Eight values per vpmaxsd or vpaddd, the tail a masked load and store.
__attribute__((QNN_AVX2_TARGET)) void combine_i32_avx2(
    std::int32_t* acc, const std::int32_t* src, std::size_t n, bool max) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(acc + i),
        max ? _mm256_max_epi32(a, b) : _mm256_add_epi32(a, b));
  }
  if (i < n) {
    const __m256i m = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - i)), lane);
    const __m256i a = _mm256_maskload_epi32(acc + i, m);
    const __m256i b = _mm256_maskload_epi32(src + i, m);
    _mm256_maskstore_epi32(
        acc + i, m, max ? _mm256_max_epi32(a, b) : _mm256_add_epi32(a, b));
  }
}

#undef QNN_AVX2_TARGET

constexpr VecOps kAvx2Ops{Level::kAvx2,         "avx2",
                          pack_codes_avx2,      dot_window_avx2,
                          build_window_avx2,    dot_bytes_avx2,
                          threshold_codes_avx2, narrow_i8_avx2,
                          narrow_i16_avx2,      widen_i8_avx2,
                          widen_i16_avx2,       combine_i32_avx2};

}  // namespace

const VecOps* avx2_ops() { return &kAvx2Ops; }

bool cpu_has_avx2() {
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
}

}  // namespace qnn::simd::detail

#else  // compiled out

namespace qnn::simd::detail {
const VecOps* avx2_ops() { return nullptr; }
bool cpu_has_avx2() { return false; }
}  // namespace qnn::simd::detail

#endif
