// Host fingerprint stamped into the BENCH files: absolute rates only
// compare between runs with the same fingerprint (cores, best SIMD level,
// build type). Benches that include this get QNN_BUILD_TYPE from CMake.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>

#include "core/simd/vec_ops.h"

namespace qnn::bench {

inline std::string host_json() {
  std::ostringstream o;
  o << "{\"cores\": " << std::max(1u, std::thread::hardware_concurrency())
    << ", \"simd\": \"" << simd::level_name(simd::available_levels().back())
    << "\", \"build_type\": \"" << QNN_BUILD_TYPE << "\"}";
  return o.str();
}

}  // namespace qnn::bench
