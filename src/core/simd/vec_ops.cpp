// Scalar reference implementation + runtime dispatch for the vec_ops seam.
#include "core/simd/vec_ops.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/error.h"
#include "core/simd/vec_ops_impl.h"

namespace qnn::simd {
namespace {

// ------------------------------------------------------------------ scalar

void pack_codes_scalar(const std::int32_t* codes, int n, int planes,
                       int off, Word* dst) {
  // Eight codes' low bytes side by side in x; for each plane p,
  // ((x >> p) & kLsb) * kGather moves bit p of byte b to bit 56 + b, so
  // the top byte holds eight codes' plane-p bits in order. Accumulate the
  // chunk for all planes in registers, then OR each plane's word once.
  constexpr Word kLsb = 0x0101010101010101ULL;
  constexpr Word kGather = 0x0102040810204080ULL;
  const auto np = static_cast<std::size_t>(planes);
  Word chunk[kMaxPlanes] = {};
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    Word x = 0;
    for (int b = 0; b < 8; ++b) {
      x |= static_cast<Word>(static_cast<std::uint8_t>(codes[j + b]))
           << (8 * b);
    }
    for (std::size_t p = 0; p < np; ++p) {
      chunk[p] |= (((x >> p) & kLsb) * kGather >> 56) << j;
    }
  }
  for (; j < n; ++j) {
    const auto code = static_cast<std::uint32_t>(codes[j]);
    for (std::size_t p = 0; p < np; ++p) {
      chunk[p] |= static_cast<Word>((code >> p) & 1u) << j;
    }
  }
  for (std::size_t p = 0; p < np; ++p) dst[p] |= chunk[p] << off;
}

void dot_window_one(const Word* a, std::size_t n, int planes, const Word* w,
                    std::size_t filters, std::int32_t* out) {
  constexpr std::size_t kL = kFilterLanes;
  const auto np = static_cast<std::size_t>(planes);
  std::int64_t pops[kMaxPlanes] = {};
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < np; ++p) {
      pops[p] += qnn::popcount(a[j * np + p]);
    }
  }
  for (std::size_t f0 = 0; f0 < filters; f0 += kL) {
    const Word* wg = w + f0 * n;
    std::int64_t sum[kL] = {};
    for (std::size_t p = 0; p < np; ++p) {
      std::int64_t on[kL] = {};
      for (std::size_t j = 0; j < n; ++j) {
        const Word ap = a[j * np + p];
        for (std::size_t l = 0; l < kL; ++l) {
          on[l] += qnn::popcount(wg[j * kL + l] & ap);
        }
      }
      for (std::size_t l = 0; l < kL; ++l) {
        sum[l] += (2 * on[l] - pops[p]) << p;
      }
    }
    const std::size_t lanes = std::min(kL, filters - f0);
    for (std::size_t l = 0; l < lanes; ++l) {
      out[f0 + l] = static_cast<std::int32_t>(sum[l]);
    }
  }
}

/// The reference runs a block's windows in turn.
void dot_window_scalar(const Word* a, std::size_t n, int planes,
                       const Word* w, std::size_t filters, std::int32_t* out,
                       std::size_t count) {
  const std::size_t window = n * static_cast<std::size_t>(planes);
  for (std::size_t i = 0; i < count; ++i) {
    dot_window_one(a + i * window, n, planes, w, filters, out + i * filters);
  }
}

void build_window_scalar(const Word* rows, std::size_t row_size, int k,
                         int top, std::int64_t src_bit, std::int64_t seg,
                         int planes, Word* out) {
  const auto np = static_cast<std::size_t>(planes);
  const Word* const rows_end = rows + static_cast<std::size_t>(k) * row_size;
  const Word* row = rows + static_cast<std::size_t>(top) * row_size;
  Word pending[kMaxPlanes] = {};
  int fill = 0;  // bits pending in every plane's next word
  for (int dy = 0; dy < k; ++dy) {
    for (std::int64_t pos = src_bit, end = src_bit + seg; pos < end;) {
      const int n =
          static_cast<int>(std::min<std::int64_t>(end - pos, kWordBits));
      const int soff = static_cast<int>(pos % kWordBits);
      const Word* src = row + static_cast<std::size_t>(pos / kWordBits) * np;
      const Word mask = low_mask(n);
      const int spill = fill + n - kWordBits;  // >= 0: the chunk ends a word
      for (std::size_t p = 0; p < np; ++p) {
        Word bits = src[p] >> soff;
        if (soff + n > kWordBits) bits |= src[np + p] << (kWordBits - soff);
        bits &= mask;
        if (spill < 0) {
          pending[p] |= bits << fill;
        } else {
          out[p] = pending[p] | (bits << fill);
          pending[p] = spill == 0 ? 0 : bits >> (n - spill);
        }
      }
      if (spill < 0) {
        fill += n;
      } else {
        out += np;
        fill = spill;
      }
      pos += n;
    }
    row += row_size;
    if (row == rows_end) row = rows;
  }
  if (fill != 0) std::copy_n(pending, np, out);
}

void dot_bytes_one(const std::uint8_t* a, std::size_t quads, int planes,
                   const Word* w, std::size_t filters, std::int32_t* out) {
  // Unsigned throughout: every sum wraps mod 2^32, the int32 truncation
  // contract, with no signed overflow on the way.
  const std::size_t len = 4 * quads;  // bytes per plane
  const auto np = static_cast<std::size_t>(planes);
  std::uint32_t sums[kMaxBytePlanes] = {};
  for (std::size_t q = 0; q < np; ++q) {
    for (std::size_t i = 0; i < len; ++i) sums[q] += a[q * len + i];
  }
  for (std::size_t f = 0; f < filters; ++f) {
    const Word* wf = w + f / kByteLanes * quads;
    const auto shift = static_cast<int>(4 * (f % kByteLanes));
    // Horner over the byte-planes, high to low.
    std::uint32_t total = 0;
    for (std::size_t q = np; q-- > 0;) {
      const std::uint8_t* aq = a + q * len;
      std::uint32_t on = 0;  // sum of the bytes whose weight is +1
      for (std::size_t v = 0; v < quads; ++v) {
        const auto bits = static_cast<std::uint32_t>(wf[v] >> shift);
        for (std::size_t j = 0; j < 4; ++j) {
          on += ((bits >> j) & 1U) * aq[4 * v + j];
        }
      }
      total = (total << 8) + 2 * on - sums[q];
    }
    out[f] = static_cast<std::int32_t>(total);
  }
}

void dot_bytes_scalar(const std::uint8_t* a, std::size_t quads, int planes,
                      const Word* w, std::size_t filters, std::int32_t* out,
                      std::size_t count) {
  const std::size_t window = 4 * quads * static_cast<std::size_t>(planes);
  for (std::size_t i = 0; i < count; ++i) {
    dot_bytes_one(a + i * window, quads, planes, w, filters,
                  out + i * filters);
  }
}

void threshold_codes_scalar(const std::int32_t* a, std::size_t n,
                            const std::int32_t* sign, const std::int32_t* t,
                            std::size_t stride, int levels,
                            std::int32_t* codes) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t v = sign[i] == 0 ? 0 : sign[i] < 0 ? ~a[i] : a[i];
    std::int32_t code = 0;
    for (int l = 0; l < levels; ++l) {
      code += v >= t[static_cast<std::size_t>(l) * stride + i] ? 1 : 0;
    }
    codes[i] = code;
  }
}

void narrow_i8_scalar(const std::int32_t* src, std::size_t n,
                      std::int8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int8_t>(src[i]);
  }
}

void narrow_i16_scalar(const std::int32_t* src, std::size_t n,
                       std::int16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int16_t>(src[i]);
  }
}

void widen_i8_scalar(const std::int8_t* src, std::size_t n,
                     std::int32_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

void widen_i16_scalar(const std::int16_t* src, std::size_t n,
                      std::int32_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

/// Unsigned sums wrap mod 2^32 with no signed overflow on the way.
void combine_i32_scalar(std::int32_t* acc, const std::int32_t* src,
                        std::size_t n, bool max) {
  if (max) {
    for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], src[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(acc[i]) +
                                         static_cast<std::uint32_t>(src[i]));
    }
  }
}

constexpr VecOps kScalarOps{Level::kScalar,       "scalar",
                            pack_codes_scalar,    dot_window_scalar,
                            build_window_scalar,  dot_bytes_scalar,
                            threshold_codes_scalar, narrow_i8_scalar,
                            narrow_i16_scalar,    widen_i8_scalar,
                            widen_i16_scalar,     combine_i32_scalar};

// ---------------------------------------------------------------- dispatch

/// Table slot per level; nullptr = compiled out or CPU-unsupported.
const VecOps* level_table(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarOps;
    case Level::kAvx2:
      return detail::cpu_has_avx2() ? detail::avx2_ops() : nullptr;
    case Level::kAvx512:
      return detail::cpu_has_avx512() ? detail::avx512_ops() : nullptr;
  }
  return nullptr;
}

/// Widest available level <= `want`.
const VecOps* clamp_down(Level want) {
  for (int l = static_cast<int>(want); l >= 0; --l) {
    if (const VecOps* ops = level_table(static_cast<Level>(l))) return ops;
  }
  return &kScalarOps;  // unreachable: kScalar is always present
}

/// Resolve the QNN_SIMD environment request (nullptr/"auto" = widest).
const VecOps* env_dispatch() {
  const char* env = std::getenv("QNN_SIMD");
  Level want = Level::kAvx512;  // auto: widest compiled+supported
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    if (std::strcmp(env, "scalar") == 0) {
      want = Level::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      want = Level::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      want = Level::kAvx512;
    } else {
      std::fprintf(stderr,
                   "qnn: unknown QNN_SIMD=%s (want auto|avx512|avx2|scalar); "
                   "using auto\n",
                   env);
    }
    const VecOps* got = clamp_down(want);
    if (got->level != want) {
      std::fprintf(stderr,
                   "qnn: QNN_SIMD=%s unavailable on this host/build; "
                   "using %s\n",
                   env, got->name);
    }
    return got;
  }
  return clamp_down(want);
}

/// Explicit override (tests/bench); nullptr = follow env/auto.
std::atomic<const VecOps*> g_override{nullptr};

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "?";
}

std::vector<Level> available_levels() {
  std::vector<Level> out;
  for (const Level l : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (level_table(l) != nullptr) out.push_back(l);
  }
  return out;
}

const VecOps& vec_ops() {
  if (const VecOps* forced = g_override.load(std::memory_order_acquire)) {
    return *forced;
  }
  // The env/CPUID resolution is stable for the process; cache it.
  static const VecOps* const resolved = env_dispatch();
  return *resolved;
}

const VecOps& vec_ops_at(Level level) {
  const VecOps* ops = level_table(level);
  QNN_CHECK(ops != nullptr,
            std::string("SIMD level '") + level_name(level) +
                "' is not available on this host/build");
  return *ops;
}

void set_level(std::optional<Level> level) {
  g_override.store(level ? &vec_ops_at(*level) : nullptr,
                   std::memory_order_release);
}

}  // namespace qnn::simd
