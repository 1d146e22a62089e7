// AVX2 path: 4-word AND + vpshufb nibble-LUT popcount (the classic Mula
// kernel), summed with vpsadbw. The window dot runs a filter-lane group as
// two 4-lane halves, so no horizontal sum is ever needed there; the plane
// pack moves one plane of eight codes per vpslld + vmovmskps. Built with
// a per-function target attribute (AVX2 + POPCNT) so the TU compiles under
// the generic -march; the dispatcher only hands these functions out after
// a CPUID check.
#include "core/simd/vec_ops_impl.h"

#if defined(__x86_64__) && defined(QNN_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>

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

__attribute__((QNN_AVX2_TARGET)) inline std::uint64_t hsum_epi64(__m256i v) {
  Word lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((QNN_AVX2_TARGET)) std::uint64_t popcount_avx2(
    const Word* a, std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    total = _mm256_add_epi64(
        total, _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256()));
  }
  std::uint64_t t = hsum_epi64(total);
  for (; i < n; ++i) {
    t += static_cast<std::uint64_t>(__builtin_popcountll(a[i]));
  }
  return t;
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

__attribute__((QNN_AVX2_TARGET)) void dot_window_avx2(
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
  // Four planes per register; shifts by >= 64 yield zero, so the
  // word-aligned and word-completing cases need no special shifts.
  for (std::size_t b = 0; b < np; b += 4) {
    const __m256i m = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(
            static_cast<long long>(std::min<std::size_t>(4, np - b))),
        _mm256_setr_epi64x(0, 1, 2, 3));
    __m256i pending = _mm256_setzero_si256();
    int fill = 0;  // bits pending in every plane's next word
    Word* o = out + b;
    std::size_t at = static_cast<std::size_t>(top) * row_size;
    for (int dy = 0; dy < k; ++dy) {
      const Word* row = rows + at + b;
      at += row_size;
      if (at == ring) at = 0;
      for (std::int64_t pos = src_bit, end = src_bit + seg; pos < end;) {
        const int n =
            static_cast<int>(std::min<std::int64_t>(end - pos, kWordBits));
        const int soff = static_cast<int>(pos % kWordBits);
        const Word* src = row + static_cast<std::size_t>(pos / kWordBits) * np;
        __m256i bits = shr(load(m, src), soff);
        if (soff + n > kWordBits) {
          bits = _mm256_or_si256(bits,
                                 shl(load(m, src + np), kWordBits - soff));
        }
        bits = _mm256_and_si256(
            bits, _mm256_set1_epi64x(static_cast<long long>(low_mask(n))));
        pending = _mm256_or_si256(pending, shl(bits, fill));
        fill += n;
        if (fill >= kWordBits) {
          store(m, o, pending);
          o += np;
          fill -= kWordBits;
          pending = shr(bits, n - fill);
        }
        pos += n;
      }
    }
    if (fill != 0) store(m, o, pending);
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

#undef QNN_AVX2_TARGET

constexpr VecOps kAvx2Ops{Level::kAvx2,         "avx2",
                          popcount_avx2,        pack_codes_avx2,
                          dot_window_avx2,      build_window_avx2,
                          threshold_codes_avx2};

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
