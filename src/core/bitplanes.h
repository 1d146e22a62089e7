// Bit-plane decomposition of unsigned n-bit activation codes.
//
// The paper uses 2-bit activations (§III-B), which run through the
// XNOR-popcount datapath by decomposing each unsigned code a into bit
// planes a = sum_p 2^p * a_p and evaluating, for +-1 weights w packed as
// sign bits wb (w = 2*wb - 1):
//
//   dot(w, a) = sum_p 2^p * sum_i w_i * a_{p,i}
//             = sum_p 2^p * (2*popcount(wb & a_p) - popcount(a_p))
//
// The conv kernel keeps each window of 1- or 2-bit codes as that many
// packed bit vectors (core/packed_planes.h), so each filter costs one or
// two AND-popcounts per word. Wider codes (3..16 bits: the 8-bit image
// layer above all) would need up to 16 planes, each filling only part of
// its words on a short first-layer window; they run in the byte domain
// instead, with the same identity one byte-plane at a time:
//
//   dot(w, a) = sum_q 256^q * (2 * sum_{i : wb_i = 1} a_{q,i} - sum_i a_{q,i})
//
// for the low (q = 0) and high (q = 1) bytes a_q of each code (vec_ops
// dot_bytes). reference_pm1_dot below is the plain integer definition the
// tests pin both datapaths to.
#pragma once

#include <cstdint>
#include <span>

#include "core/error.h"

namespace qnn {

/// Plain integer reference of the dot product above, used by tests to pin
/// the packed datapath to the mathematical definition.
[[nodiscard]] inline std::int32_t reference_pm1_dot(
    std::span<const std::int8_t> weights_pm1,
    std::span<const std::int32_t> codes) {
  QNN_CHECK(weights_pm1.size() == codes.size(), "length mismatch");
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    acc += static_cast<std::int64_t>(weights_pm1[i]) * codes[i];
  }
  return static_cast<std::int32_t>(acc);
}

}  // namespace qnn
