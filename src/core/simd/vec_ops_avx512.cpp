// AVX-512 path: 8-word AND + vpopcntdq (the VPOPCNTDQ extension counts 64
// bits per lane in one instruction — popcount bandwidth is the whole game
// for binary conv, per FINN/XNORBIN). The window dot maps one filter-lane
// group onto one register: a broadcast plane word against eight filters'
// words per instruction, each weight vector loaded once for both planes,
// four groups per broadcast, narrowed to int32 by vpmovqd. The window build
// moves one word of both planes per register; the plane pack tests sixteen
// codes per vptestmd. The byte dot expands one weight-mask word into 64
// bytes of 0/-1 with vpmovm2b (AVX512BW) and multiplies them against four
// broadcast window bytes with the VNNI vpdpbusd, sixteen filters per
// register; vpsadbw sums the window bytes. The ring conversions move
// sixteen values per vpmovdb/vpmovdw (masked at the tail) and per
// vpmovsxbd/vpmovsxwd.
#include "core/simd/vec_ops_impl.h"

#if defined(__x86_64__) && defined(QNN_SIMD_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace qnn::simd::detail {
namespace {

#define QNN_AVX512_TARGET \
  target("avx512f,avx512bw,avx512vnni,avx512vpopcntdq,popcnt")

/// Sixteen codes per register (the chunk tail is a zero-masked load, so
/// nothing past codes[n) is read); one vptestmd per plane gives that
/// plane's sixteen bits as a mask. Bits at or above `planes` are never
/// tested.
__attribute__((QNN_AVX512_TARGET)) void pack_codes_avx512(
    const std::int32_t* codes, int n, int planes, int off, Word* dst) {
  const auto np = static_cast<std::size_t>(planes);
  Word chunk[kMaxPlanes] = {};
  for (int j = 0; j < n; j += 16) {
    const auto m =
        static_cast<__mmask16>(n - j >= 16 ? 0xffffu : (1u << (n - j)) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi32(m, codes + j);
    for (std::size_t p = 0; p < np; ++p) {
      chunk[p] |= static_cast<Word>(_mm512_test_epi32_mask(
                      v, _mm512_set1_epi32(1 << p)))
                  << j;
    }
  }
  for (std::size_t p = 0; p < np; ++p) dst[p] |= chunk[p] << off;
}

/// Up to kG filter-lane groups against kW (1 or 2) kP-plane windows at
/// once. The word loop is outermost: per word, every window's plane words
/// are broadcast once, and each group's weight vector is loaded once and
/// ANDed with every plane of every window, so the loop issues one load and
/// kW*kP AND + vpopcntq + add per group, with kG*kP*kW independent
/// accumulators in flight (16 at four groups, two planes, two windows).
/// Horner over the planes, high to low (sum = 2*sum + on_p, adds only: the
/// shift intrinsics' undefined-source operand trips
/// -Wmaybe-uninitialized), then builds sum_p on_p << p once, after the
/// loop; each window's sum_p pop_p << p is subtracted, and vpmovqd narrows
/// each group's eight sums to int32 (a masked store for a partial last
/// group). `filters` (<= kG*8) responses are written per window, from
/// out[x][at] on.
template <std::size_t kG, std::size_t kP, std::size_t kW>
__attribute__((QNN_AVX512_TARGET)) inline void dot_groups(
    const Word* const (&a)[kW], std::size_t n, const Word* wg,
    const __m512i (&pop)[kW], std::size_t filters,
    std::int32_t* const (&out)[kW], std::size_t at) {
  // The constant-trip loops are unrolled so that the accumulators stay in
  // registers.
  __m512i on[kW][kP][kG];
#pragma GCC unroll 2
  for (auto& window : on) {
#pragma GCC unroll 2
    for (auto& plane : window) {
#pragma GCC unroll 4
      for (auto& v : plane) v = _mm512_setzero_si512();
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    __m512i av[kW][kP];
#pragma GCC unroll 2
    for (std::size_t x = 0; x < kW; ++x) {
#pragma GCC unroll 2
      for (std::size_t p = 0; p < kP; ++p) {
        av[x][p] = _mm512_set1_epi64(static_cast<long long>(a[x][j * kP + p]));
      }
    }
#pragma GCC unroll 4
    for (std::size_t g = 0; g < kG; ++g) {
      const __m512i wv =
          _mm512_loadu_si512(wg + (g * n + j) * kFilterLanes);
#pragma GCC unroll 2
      for (std::size_t x = 0; x < kW; ++x) {
#pragma GCC unroll 2
        for (std::size_t p = 0; p < kP; ++p) {
          on[x][p][g] = _mm512_add_epi64(
              on[x][p][g],
              _mm512_popcnt_epi64(_mm512_and_si512(wv, av[x][p])));
        }
      }
    }
  }
#pragma GCC unroll 2
  for (std::size_t x = 0; x < kW; ++x) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < kG; ++g) {
      __m512i sum = on[x][kP - 1][g];
#pragma GCC unroll 2
      for (std::size_t p = kP - 1; p > 0; --p) {
        sum = _mm512_add_epi64(_mm512_add_epi64(sum, sum), on[x][p - 1][g]);
      }
      const __m512i v = _mm512_sub_epi64(_mm512_add_epi64(sum, sum), pop[x]);
      const std::size_t lanes = filters - g * kFilterLanes;
      _mm512_mask_cvtepi64_storeu_epi32(
          out[x] + at + g * kFilterLanes,
          static_cast<__mmask8>(lanes >= kFilterLanes ? 0xffu
                                                      : (1u << lanes) - 1u),
          v);
    }
  }
}

template <std::size_t kP, std::size_t kW>
__attribute__((QNN_AVX512_TARGET)) void dot_window_planes(
    const Word* const (&a)[kW], std::size_t n, const Word* w,
    std::size_t filters, std::int32_t* const (&out)[kW]) {
  __m512i pop[kW];  // per window: sum_p popcount(plane p) << p
  for (std::size_t x = 0; x < kW; ++x) {
    std::int64_t sum = 0;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < kP; ++p) {
        sum += static_cast<std::int64_t>(
                   __builtin_popcountll(a[x][j * kP + p]))
               << p;
      }
    }
    pop[x] = _mm512_set1_epi64(sum);
  }
  constexpr std::size_t kBlock = 4;  // groups sharing each broadcast
  std::size_t f = 0;
  for (; f + (kBlock - 1) * kFilterLanes < filters;
       f += kBlock * kFilterLanes) {
    dot_groups<kBlock, kP, kW>(a, n, w + f * n, pop, filters - f, out, f);
  }
  for (; f < filters; f += kFilterLanes) {
    dot_groups<1, kP, kW>(a, n, w + f * n, pop, filters - f, out, f);
  }
}

__attribute__((QNN_AVX512_TARGET)) void dot_window_avx512(
    const Word* a, std::size_t n, int planes, const Word* w,
    std::size_t filters, std::int32_t* out, const Word* a2,
    std::int32_t* out2) {
  if (a2 == nullptr) {
    const Word* const win[1] = {a};
    std::int32_t* const dst[1] = {out};
    (planes == 1 ? dot_window_planes<1, 1> : dot_window_planes<2, 1>)(
        win, n, w, filters, dst);
  } else {
    const Word* const win[2] = {a, a2};
    std::int32_t* const dst[2] = {out, out2};
    (planes == 1 ? dot_window_planes<1, 2> : dot_window_planes<2, 2>)(
        win, n, w, filters, dst);
  }
}

/// Zero-masked shifts of every lane by `c` (>= 64 yields zero). The
/// unmasked intrinsics' undefined-source operand trips
/// -Wmaybe-uninitialized; the mask also keeps lanes past the plane count
/// zero.
__attribute__((QNN_AVX512_TARGET)) inline __m512i shr(__mmask8 m, __m512i v,
                                                     int c) {
  return _mm512_maskz_srl_epi64(m, v, _mm_cvtsi32_si128(c));
}
__attribute__((QNN_AVX512_TARGET)) inline __m512i shl(__mmask8 m, __m512i v,
                                                     int c) {
  return _mm512_maskz_sll_epi64(m, v, _mm_cvtsi32_si128(c));
}

__attribute__((QNN_AVX512_TARGET)) void build_window_avx512(
    const Word* rows, std::size_t row_size, int k, int top,
    std::int64_t src_bit, std::int64_t seg, int planes, Word* out) {
  const auto np = static_cast<std::size_t>(planes);
  const std::size_t ring = static_cast<std::size_t>(k) * row_size;
  // Every plane in one register; shifts by >= 64 yield zero, so the
  // word-aligned and word-completing cases need no special shifts.
  const auto m = static_cast<__mmask8>((1u << np) - 1u);
  __m512i pending = _mm512_setzero_si512();
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
      __m512i bits = shr(m, _mm512_maskz_loadu_epi64(m, src), soff);
      if (soff + n > kWordBits) {
        bits = _mm512_or_si512(
            bits,
            shl(m, _mm512_maskz_loadu_epi64(m, src + np), kWordBits - soff));
      }
      bits = _mm512_and_si512(
          bits, _mm512_set1_epi64(static_cast<long long>(low_mask(n))));
      pending = _mm512_or_si512(pending, shl(m, bits, fill));
      fill += n;
      if (fill >= kWordBits) {
        _mm512_mask_storeu_epi64(out, m, pending);
        out += np;
        fill -= kWordBits;
        pending = shr(m, bits, n - fill);
      }
      pos += n;
    }
  }
  if (fill != 0) _mm512_mask_storeu_epi64(out, m, pending);
}

/// Quad `v` of kW windows against kG groups' mask words `wg`
/// ([group][quad], `quads` per group): each mask word is expanded once and
/// meets every plane of every window.
template <std::size_t kG, std::size_t kP, std::size_t kW>
__attribute__((QNN_AVX512_TARGET, always_inline)) inline void byte_quad(
    const std::uint8_t* const (&a)[kW], std::size_t quads, const Word* wg,
    std::size_t v, __m512i (&acc)[kW][kP][kG]) {
  const std::size_t len = 4 * quads;
  __m512i wv[kG];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < kG; ++g) {
    wv[g] = _mm512_movm_epi8(_cvtu64_mask64(wg[g * quads + v]));
  }
#pragma GCC unroll 2
  for (std::size_t x = 0; x < kW; ++x) {
#pragma GCC unroll 2
    for (std::size_t p = 0; p < kP; ++p) {
      std::int32_t bytes;
      std::memcpy(&bytes, a[x] + p * len + 4 * v, sizeof bytes);
      const __m512i av = _mm512_set1_epi32(bytes);
#pragma GCC unroll 4
      for (std::size_t g = 0; g < kG; ++g) {
        acc[x][p][g] = _mm512_dpbusd_epi32(acc[x][p][g], av, wv[g]);
      }
    }
  }
}

/// Up to kG groups of kByteLanes filters against kW (1 or 2) windows at
/// once, over kP byte-planes: per quad of values, each group's mask word
/// becomes 64 bytes of 0/-1 (vpmovm2b) once and meets the broadcast four
/// bytes of every plane of every window in one vpdpbusd each, so
/// acc = -(sum of the bytes whose weight is +1); a pair of windows keeps
/// kW*kP*kG vpdpbusd chains in flight. Horner over the planes
/// (acc_1 * 256 + acc_0) and out = -2*acc - sum, with `sum` the window's
/// byte sums likewise combined; `filters` (<= kG*16) responses are written
/// per window from out[x][at] on, a masked store for a partial last group.
template <std::size_t kG, std::size_t kP, std::size_t kW>
__attribute__((QNN_AVX512_TARGET)) inline void dot_byte_groups(
    const std::uint8_t* const (&a)[kW], std::size_t quads, const Word* wg,
    const __m512i (&sum)[kW], std::size_t filters,
    std::int32_t* const (&out)[kW], std::size_t at) {
  // The constant-trip loops are unrolled so that acc and wv stay in
  // registers (-O2 would otherwise keep them on the stack).
  __m512i acc[kW][kP][kG];
#pragma GCC unroll 2
  for (auto& window : acc) {
#pragma GCC unroll 2
    for (auto& plane : window) {
#pragma GCC unroll 4
      for (auto& v : plane) v = _mm512_setzero_si512();
    }
  }
  for (std::size_t q = 0; q < quads; ++q) {
    byte_quad<kG, kP, kW>(a, quads, wg, q, acc);
  }
  const __m512i zero = _mm512_setzero_si512();
#pragma GCC unroll 2
  for (std::size_t x = 0; x < kW; ++x) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < kG; ++g) {
      __m512i t = acc[x][kP - 1][g];
      for (std::size_t p = kP - 1; p-- > 0;) {
        t = _mm512_add_epi32(_mm512_maskz_slli_epi32(0xffff, t, 8),
                             acc[x][p][g]);
      }
      const __m512i v = _mm512_sub_epi32(
          zero, _mm512_add_epi32(_mm512_add_epi32(t, t), sum[x]));
      const std::size_t lanes = filters - g * kByteLanes;
      _mm512_mask_storeu_epi32(
          out[x] + at + g * kByteLanes,
          static_cast<__mmask16>(lanes >= kByteLanes ? 0xffffu
                                                     : (1u << lanes) - 1u),
          v);
    }
  }
}

template <std::size_t kP, std::size_t kW>
__attribute__((QNN_AVX512_TARGET)) void dot_bytes_planes(
    const std::uint8_t* const (&a)[kW], std::size_t quads, const Word* w,
    std::size_t filters, std::int32_t* const (&out)[kW]) {
  // Per window, sum_q 256^q * S_q, S_q by vpsadbw over 64-byte chunks (a
  // zero-masked load for the tail).
  const std::size_t len = 4 * quads;
  __m512i vsum[kW];
  for (std::size_t x = 0; x < kW; ++x) {
    std::uint32_t sum = 0;
    for (std::size_t p = kP; p-- > 0;) {
      __m512i s = _mm512_setzero_si512();
      for (std::size_t i = 0; i < len; i += 64) {
        const auto m = static_cast<__mmask64>(
            len - i >= 64 ? ~0ULL : (1ULL << (len - i)) - 1ULL);
        s = _mm512_add_epi64(
            s, _mm512_sad_epu8(_mm512_maskz_loadu_epi8(m, a[x] + p * len + i),
                               _mm512_setzero_si512()));
      }
      Word lanes[8];
      _mm512_storeu_si512(lanes, s);
      sum = (sum << 8) + static_cast<std::uint32_t>(
                             lanes[0] + lanes[1] + lanes[2] + lanes[3] +
                             lanes[4] + lanes[5] + lanes[6] + lanes[7]);
    }
    vsum[x] = _mm512_set1_epi32(static_cast<std::int32_t>(sum));
  }
  constexpr std::size_t kBlock = 4;  // groups sharing each broadcast
  std::size_t f = 0;
  for (; f + (kBlock - 1) * kByteLanes < filters; f += kBlock * kByteLanes) {
    dot_byte_groups<kBlock, kP, kW>(a, quads, w + f / kByteLanes * quads,
                                    vsum, filters - f, out, f);
  }
  for (; f < filters; f += kByteLanes) {
    dot_byte_groups<1, kP, kW>(a, quads, w + f / kByteLanes * quads, vsum,
                               filters - f, out, f);
  }
}

__attribute__((QNN_AVX512_TARGET)) void dot_bytes_avx512(
    const std::uint8_t* a, std::size_t quads, int planes, const Word* w,
    std::size_t filters, std::int32_t* out, const std::uint8_t* a2,
    std::int32_t* out2) {
  if (a2 == nullptr) {
    const std::uint8_t* const win[1] = {a};
    std::int32_t* const dst[1] = {out};
    (planes == 1 ? dot_bytes_planes<1, 1> : dot_bytes_planes<2, 1>)(
        win, quads, w, filters, dst);
  } else {
    const std::uint8_t* const win[2] = {a, a2};
    std::int32_t* const dst[2] = {out, out2};
    (planes == 1 ? dot_bytes_planes<1, 2> : dot_bytes_planes<2, 2>)(
        win, quads, w, filters, dst);
  }
}

/// Sixteen channels per register; the channel tail is a masked load and
/// store. Each level adds one per lane whose comparison holds.
__attribute__((QNN_AVX512_TARGET)) void threshold_codes_avx512(
    const std::int32_t* a, std::size_t n, const std::int32_t* sign,
    const std::int32_t* t, std::size_t stride, int levels,
    std::int32_t* codes) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i ones = _mm512_set1_epi32(-1);
  for (std::size_t i = 0; i < n; i += 16) {
    const auto m = static_cast<__mmask16>(
        n - i >= 16 ? 0xffffu : (1u << (n - i)) - 1u);
    const __m512i s = _mm512_maskz_loadu_epi32(m, sign + i);
    __m512i v = _mm512_maskz_loadu_epi32(
        _mm512_mask_cmpneq_epi32_mask(m, s, zero), a + i);
    v = _mm512_mask_xor_epi32(v, _mm512_cmplt_epi32_mask(s, zero), v, ones);
    __m512i code = zero;
    const std::int32_t* tl = t + i;
    for (int l = 0; l < levels; ++l, tl += stride) {
      code = _mm512_mask_add_epi32(
          code, _mm512_cmpge_epi32_mask(v, _mm512_maskz_loadu_epi32(m, tl)),
          code, one);
    }
    _mm512_mask_storeu_epi32(codes + i, m, code);
  }
}

/// Mask of the first min(16, n) lanes.
inline __mmask16 lanes16(std::size_t n) {
  return static_cast<__mmask16>(n >= 16 ? 0xffffu : (1u << n) - 1u);
}

__attribute__((QNN_AVX512_TARGET)) void narrow_i8_avx512(
    const std::int32_t* src, std::size_t n, std::int8_t* dst) {
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = lanes16(n - i);
    _mm512_mask_cvtepi32_storeu_epi8(dst + i, m,
                                     _mm512_maskz_loadu_epi32(m, src + i));
  }
}

__attribute__((QNN_AVX512_TARGET)) void narrow_i16_avx512(
    const std::int32_t* src, std::size_t n, std::int16_t* dst) {
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = lanes16(n - i);
    _mm512_mask_cvtepi32_storeu_epi16(dst + i, m,
                                      _mm512_maskz_loadu_epi32(m, src + i));
  }
}

/// Full registers, then the (< 16) tail value by value: a masked byte or
/// word load would need AVX512VL on top of the level's extensions. (The
/// all-lanes maskz forms: the plain ones' undefined-source operand trips
/// -Wmaybe-uninitialized.)
__attribute__((QNN_AVX512_TARGET)) void widen_i8_avx512(
    const std::int8_t* src, std::size_t n, std::int32_t* dst) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_si512(
        dst + i, _mm512_maskz_cvtepi8_epi32(
                     0xffff, _mm_loadu_si128(
                                 reinterpret_cast<const __m128i*>(src + i))));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

__attribute__((QNN_AVX512_TARGET)) void widen_i16_avx512(
    const std::int16_t* src, std::size_t n, std::int32_t* dst) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_si512(
        dst + i, _mm512_maskz_cvtepi16_epi32(
                     0xffff, _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(src + i))));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

#undef QNN_AVX512_TARGET

constexpr VecOps kAvx512Ops{Level::kAvx512,         "avx512",
                            pack_codes_avx512,      dot_window_avx512,
                            build_window_avx512,    dot_bytes_avx512,
                            threshold_codes_avx512, narrow_i8_avx512,
                            narrow_i16_avx512,      widen_i8_avx512,
                            widen_i16_avx512};

}  // namespace

const VecOps* avx512_ops() { return &kAvx512Ops; }

bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vnni") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
}

}  // namespace qnn::simd::detail

#else  // compiled out

namespace qnn::simd::detail {
const VecOps* avx512_ops() { return nullptr; }
bool cpu_has_avx512() { return false; }
}  // namespace qnn::simd::detail

#endif
