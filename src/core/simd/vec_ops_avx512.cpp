// AVX-512 path: 8-word AND + vpopcntdq (the VPOPCNTDQ extension counts 64
// bits per lane in one instruction — popcount bandwidth is the whole game
// for binary conv, per FINN/XNORBIN). The window dot maps one filter-lane
// group onto one register: a broadcast plane word against eight filters'
// words per instruction. popcount tails use a masked load; its horizontal
// sum avoids _mm512_reduce_add_epi64, whose gcc-12 header trips
// -Wuninitialized under -Werror.
#include "core/simd/vec_ops_impl.h"

#if defined(__x86_64__) && defined(QNN_SIMD_AVX512)

#include <immintrin.h>

namespace qnn::simd::detail {
namespace {

#define QNN_AVX512_TARGET target("avx512f,avx512vpopcntdq,popcnt")

__attribute__((QNN_AVX512_TARGET)) inline std::uint64_t hsum_epi64(
    __m512i v) {
  Word lanes[8];
  _mm512_storeu_si512(lanes, v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
         lanes[6] + lanes[7];
}

__attribute__((QNN_AVX512_TARGET)) std::uint64_t popcount_avx512(
    const Word* a, std::size_t n) {
  if (n < 8) {
    // Short (per-window-plane) inputs: hardware popcnt per word beats a
    // masked vector load plus a store-and-reload horizontal sum.
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t += static_cast<std::uint64_t>(__builtin_popcountll(a[i]));
    }
    return t;
  }
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_loadu_si512(a + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    total = _mm512_add_epi64(
        total, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(tail, a + i)));
  }
  return hsum_epi64(total);
}

__attribute__((QNN_AVX512_TARGET)) void dot_window_avx512(
    const Word* a, std::size_t n, int planes, const std::int64_t* pops,
    const Word* w, std::size_t groups, std::int64_t* acc) {
  for (std::size_t g = 0; g < groups; ++g) {
    const Word* wg = w + g * n * kFilterLanes;
    // Horner over the planes, high to low: sum = 2*sum + (2*on_p - pop_p)
    // builds sum_p (2*on_p - pop_p) << p with adds only (the shift
    // intrinsics' undefined-source operand trips -Wmaybe-uninitialized).
    __m512i sum = _mm512_setzero_si512();
    for (int p = planes - 1; p >= 0; --p) {
      const Word* ap = a + static_cast<std::size_t>(p) * n;
      // Two independent lane-count chains per plane for ILP.
      __m512i on0 = _mm512_setzero_si512();
      __m512i on1 = _mm512_setzero_si512();
      std::size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        const Word* wj = wg + j * kFilterLanes;
        on0 = _mm512_add_epi64(
            on0, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_loadu_si512(wj),
                     _mm512_set1_epi64(static_cast<long long>(ap[j])))));
        on1 = _mm512_add_epi64(
            on1, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_loadu_si512(wj + kFilterLanes),
                     _mm512_set1_epi64(static_cast<long long>(ap[j + 1])))));
      }
      if (j < n) {
        on0 = _mm512_add_epi64(
            on0, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_loadu_si512(wg + j * kFilterLanes),
                     _mm512_set1_epi64(static_cast<long long>(ap[j])))));
      }
      const __m512i on = _mm512_add_epi64(on0, on1);
      sum = _mm512_add_epi64(
          _mm512_add_epi64(sum, sum),
          _mm512_sub_epi64(_mm512_add_epi64(on, on),
                           _mm512_set1_epi64(pops[p])));
    }
    _mm512_storeu_si512(acc + g * kFilterLanes, sum);
  }
}

#undef QNN_AVX512_TARGET

constexpr VecOps kAvx512Ops{Level::kAvx512, "avx512", popcount_avx512,
                            dot_window_avx512};

}  // namespace

const VecOps* avx512_ops() { return &kAvx512Ops; }

bool cpu_has_avx512_popcnt() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
}

}  // namespace qnn::simd::detail

#else  // compiled out

namespace qnn::simd::detail {
const VecOps* avx512_ops() { return nullptr; }
bool cpu_has_avx512_popcnt() { return false; }
}  // namespace qnn::simd::detail

#endif
