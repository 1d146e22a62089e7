// Runtime-dispatched vector primitives behind the two conv datapaths: the
// bit-plane XNOR-popcount path for 1-2-bit codes (§III-B1) and the byte
// path for 3-16-bit codes (the 8-bit image layer above all), both against
// 1-bit weights; plus the ring conversions that let a Stream store each
// value at its declared width (int8/int16 narrowing on push, sign
// extension on pop). Both window dots take one window or a pair of
// windows of the same shape: a pair shares the weight-side work (each
// AVX-512 weight vector loaded, each mask word expanded, once for both),
// and the scalar reference runs the two in turn.
//
// The layering follows the vec_ops/vec_dot split used by ggml's QNN NPU
// device code: a scalar implementation defines the semantics and stays the
// bit-exact reference, and the wider paths (AVX2: nibble-LUT popcount,
// `vpslld` + `vmovmskps` plane packing, `vpshufb` + `vpcmpeqb` weight-mask
// expansion into `vpmaddubsw`; AVX-512: `vpopcntdq`, `vptestmd` plane
// packing, `vpmovqd` narrowing, `vpmovm2b` weight-mask expansion into the
// VNNI `vpdpbusd` byte dot, `vpmovdb`/`vpmovdw` narrowing and
// `vpmovsxbd`/`vpmovsxwd` widening) are pinned against it by tests at
// every compiled level. The AVX-512 level needs AVX512F, BW, VNNI and
// VPOPCNTDQ. All paths are built with per-function target attributes, so
// the binary itself is portable; dispatch picks an implementation at
// runtime:
//
//   1. explicit override (set_level — tests and bench ablations),
//   2. the QNN_SIMD environment variable (auto|avx512|avx2|scalar),
//   3. CPUID auto-detection (the widest compiled level the host supports).
//
// A level is only ever selected when it is both compiled in (the QNN_SIMD
// CMake knob) and supported by the running CPU, so an AVX-512-enabled build
// never emits illegal instructions on an older host — an unavailable
// request clamps down to the widest available level with a one-time note.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bitops.h"

namespace qnn::simd {

enum class Level { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

[[nodiscard]] const char* level_name(Level level);

/// Filters interleaved per weight word in the filter-lane layout: one lane
/// per 64-bit slot of an AVX-512 register (two AVX2 halves).
inline constexpr std::size_t kFilterLanes = 8;

/// Most bit-planes a window may carry: the bit-plane path takes 1- and
/// 2-bit codes; wider codes run in the byte domain (dot_bytes).
inline constexpr int kMaxPlanes = 2;

/// Filters per weight-mask word in the byte path's layout: one mask word
/// holds kByteLanes filters x 4 values, vpdpbusd's lane order.
inline constexpr std::size_t kByteLanes = 16;

/// Most byte-planes a byte-path window may carry (16-bit codes: low byte,
/// high byte).
inline constexpr int kMaxBytePlanes = 2;

/// One implementation of the word-granular kernels. Bit operands are plain
/// arrays of 64-bit words; tail masking is the caller's job (operands keep
/// the BitVector tail-bits-zero invariant). No function reads or writes
/// past the elements its arguments name, so a run may end at the end of
/// its buffer.
struct VecOps {
  Level level;
  const char* name;

  /// Bit-plane packing of one line-buffer chunk (§III-B1's input side):
  /// for i < n and p < planes, bit p of codes[i] is ORed into bit off + i of
  /// dst[p] (n >= 1, off + n <= 64). `dst` is one word of a
  /// plane-interleaved row, all planes side by side; bits already set there
  /// stay set, and code bits at or above `planes` are ignored. Reads exactly
  /// codes[0..n).
  void (*pack_codes)(const std::int32_t* codes, int n, int planes, int off,
                     Word* dst);

  /// The whole conv window against every filter (§III-B1): `a` holds
  /// `planes` bit-planes of `n` words each, plane-interleaved (word j of
  /// plane p at a[j*planes + p]); `w` holds ceil(filters / kFilterLanes)
  /// groups of kFilterLanes filters in the filter-lane layout
  /// [group][word][lane]. With pop_p the popcount of plane p, for every
  /// filter f = g*8 + l < filters,
  ///   out[f] = sum_p (2*sum_j popcount(w[g][j][l] & a[j*planes + p])
  ///                   - pop_p) << p
  /// i.e. the +-1-weighted fixed-point dot of core/bitplanes.h, narrowed
  /// to int32 by truncation. The plane popcounts are summed once per call;
  /// the eight lane sums of a group stay in registers across all planes;
  /// exactly `filters` entries of out are written.
  ///
  /// `a2`, when not null, is a second window of the same shape, whose
  /// responses go to `out2` by the same rule: one call dots two windows,
  /// so each weight vector is loaded once for both (null: one window,
  /// `out2` unused).
  void (*dot_window)(const Word* a, std::size_t n, int planes, const Word* w,
                     std::size_t filters, std::int32_t* out, const Word* a2,
                     std::int32_t* out2);

  /// Window build from a line buffer (§III-B1's shift-register taps): `k`
  /// rows of `row_size` words each at `rows`, every row plane-interleaved
  /// like `out`. Window row dy is the `seg` bits starting at bit `src_bit`
  /// of row (top + dy) mod k, 0 <= top < k, reached by a wrapping row
  /// pointer rather than a division per row; the k rows are concatenated
  /// into `out`, words_for_bits(k*seg) words per plane, every word written
  /// once and the bits past k*seg zero. One funnel shift per <=64-bit
  /// chunk moves that chunk for every plane.
  void (*build_window)(const Word* rows, std::size_t row_size, int k, int top,
                       std::int64_t src_bit, std::int64_t seg, int planes,
                       Word* out);

  /// The byte-domain window dot of 3..16-bit codes against 1-bit weights:
  /// `a` holds `planes` (1 or 2) byte-planes of 4*quads bytes each, plane
  /// after plane (plane q holds byte q of every code, low byte first), the
  /// bytes past the window's last value zero; `w` holds
  /// ceil(filters / kByteLanes) groups of `quads` mask words,
  /// [group][quad], bit 4*l + j of w[g][v] the sign bit (1 = +1) of filter
  /// g*16 + l at value 4*v + j. With S_q the byte sum of plane q, for every
  /// filter f < filters,
  ///   out[f] = sum_q 256^q * (2 * sum_{i : w_f,i = +1} a_q[i] - S_q)
  /// which is sum_i w_f,i * code_i, wrapping mod 2^32 (the int32
  /// truncation contract of dot_window). Exactly `filters` entries of out
  /// are written. A non-null `a2` is a second window of the same shape,
  /// dotted into `out2` in the same call, so each mask word is expanded
  /// once for both windows (null: one window, `out2` unused).
  void (*dot_bytes)(const std::uint8_t* a, std::size_t quads, int planes,
                    const Word* w, std::size_t filters, std::int32_t* out,
                    const std::uint8_t* a2, std::int32_t* out2);

  /// Threshold activation (§III-B3's comparator + mux) of `n` consecutive
  /// channels, vectorised over the channels: for i < n,
  ///   codes[i] = #{ l < levels : v_i >= t[l*stride + i] }
  /// with v_i = a[i] where sign[i] > 0, ~a[i] (= -a[i] - 1, exact at
  /// INT32_MIN) where sign[i] < 0, and 0 where sign[i] == 0. `t` is laid
  /// out [level][channel] with row stride `stride`. `codes` may alias `a`.
  void (*threshold_codes)(const std::int32_t* a, std::size_t n,
                          const std::int32_t* sign, const std::int32_t* t,
                          std::size_t stride, int levels,
                          std::int32_t* codes);

  /// Ring narrowing (Stream::try_push_burst): for i < n, dst[i] is the low
  /// 8 (narrow_i8) or 16 (narrow_i16) bits of src[i], two's complement —
  /// exact for every value the narrow element holds.
  void (*narrow_i8)(const std::int32_t* src, std::size_t n,
                    std::int8_t* dst);
  void (*narrow_i16)(const std::int32_t* src, std::size_t n,
                     std::int16_t* dst);

  /// Ring widening (Stream::try_pop_burst): dst[i] = src[i] sign-extended
  /// to int32, for i < n.
  void (*widen_i8)(const std::int8_t* src, std::size_t n, std::int32_t* dst);
  void (*widen_i16)(const std::int16_t* src, std::size_t n,
                    std::int32_t* dst);
};

/// Levels compiled into this binary AND usable on this CPU, ascending.
/// Always contains kScalar.
[[nodiscard]] std::vector<Level> available_levels();

/// The dispatched implementation (override > QNN_SIMD env > CPUID auto).
[[nodiscard]] const VecOps& vec_ops();

/// The implementation of one specific level; throws when that level is not
/// compiled in or not supported by this CPU (use available_levels()).
[[nodiscard]] const VecOps& vec_ops_at(Level level);

/// Process-wide dispatch override used by tests and the bench ablation;
/// std::nullopt restores env/auto dispatch. Takes effect for kernels
/// constructed afterwards: each kernel and output port resolves vec_ops()
/// once, at construction, and keeps that table for its lifetime.
void set_level(std::optional<Level> level);

}  // namespace qnn::simd
