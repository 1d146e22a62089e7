// Internal registration seam between the dispatch TU and the per-level
// implementation TUs. Each TU returns its VecOps table, or nullptr when the
// level was compiled out (QNN_SIMD CMake knob / non-x86 host).
#pragma once

#include "core/simd/vec_ops.h"

namespace qnn::simd::detail {

[[nodiscard]] const VecOps* avx2_ops();    // vec_ops_avx2.cpp
[[nodiscard]] const VecOps* avx512_ops();  // vec_ops_avx512.cpp

/// CPU support probes (false on non-x86 builds).
[[nodiscard]] bool cpu_has_avx2();
[[nodiscard]] bool cpu_has_avx512();  // F + BW + VNNI + VPOPCNTDQ

}  // namespace qnn::simd::detail
