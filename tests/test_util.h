// Shared helpers for the test suites.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "core/tensor.h"
#include "dataflow/kernels.h"

namespace qnn::testutil {

/// Tensor of unsigned codes uniform in [0, 2^bits).
inline IntTensor random_codes(const Shape& shape, int bits, Rng& rng) {
  IntTensor t(shape);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<std::int32_t>(
        rng.next_below(std::uint64_t{1} << bits));
  }
  return t;
}

/// 8-bit synthetic image.
inline IntTensor random_image(int h, int w, int c, Rng& rng) {
  return random_codes(Shape{h, w, c}, 8, rng);
}

/// The (dy, dx, ci) window of output position `at`, gathered from the
/// pooling line buffer `ring` of scan `s` — the position just reported.
inline std::vector<std::int32_t> gather_window(
    const PixelRing& ring, const WindowScanner& s,
    const WindowScanner::Completed& at) {
  std::vector<std::int32_t> w;
  w.reserve(static_cast<std::size_t>(s.window_values()));
  for (int dy = 0; dy < s.k(); ++dy) {
    for (int dx = 0; dx < s.k(); ++dx) {
      const std::int32_t* px =
          ring.pixel(at.oy * s.stride() + dy, at.ox * s.stride() + dx);
      w.insert(w.end(), px, px + s.in_shape().c);
    }
  }
  return w;
}

/// Depth-first values of `t`, ready to feed a kernel.
inline std::vector<std::int32_t> values(const IntTensor& t) {
  const std::span<const std::int32_t> flat = t.flat();
  return {flat.begin(), flat.end()};
}

/// One input edge of a driven kernel: every value is pushed, then the
/// stream is closed.
struct Feed {
  Stream& stream;
  std::vector<std::int32_t> values;
};

/// Runs one kernel cooperatively on the calling thread: each round pushes
/// the next burst of every input, calls step_checked() once, and drains
/// every output, until the kernel reports kDone. Returns the values collected
/// per output, in `outputs` order. Kernel exceptions (protocol errors)
/// propagate; a round in which the kernel is blocked and nothing moved is
/// a deadlock and throws std::logic_error, which no Error check can
/// mistake for a protocol error.
inline std::vector<std::vector<std::int32_t>> drive(
    Kernel& kernel, std::vector<Feed> inputs,
    const std::vector<Stream*>& outputs) {
  std::vector<std::size_t> pos(inputs.size(), 0);
  std::vector<std::vector<std::int32_t>> got(outputs.size());
  std::vector<std::int32_t> sink(256);
  for (;;) {
    std::size_t moved = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Feed& in = inputs[i];
      if (in.stream.closed()) continue;
      const std::size_t n = in.stream.try_push_burst(
          std::span<const std::int32_t>(in.values).subspan(pos[i]));
      pos[i] += n;
      moved += n;
      if (pos[i] == in.values.size()) in.stream.close();
    }
    const StepResult r = kernel.step_checked();
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      while (const std::size_t n = outputs[o]->try_pop_burst(sink)) {
        got[o].insert(got[o].end(), sink.begin(),
                      sink.begin() + static_cast<std::ptrdiff_t>(n));
        moved += n;
      }
    }
    if (r == StepResult::kDone) return got;
    if (r == StepResult::kBlocked && moved == 0) {
      throw std::logic_error("kernel '" + kernel.name() +
                             "' blocked with nothing left to move");
    }
  }
}

/// drive() for the common one-input, one-output kernel.
inline std::vector<std::int32_t> drive(Kernel& kernel, Stream& in,
                                       std::vector<std::int32_t> values,
                                       Stream& out) {
  return drive(kernel, {Feed{in, std::move(values)}}, {&out}).front();
}

}  // namespace qnn::testutil
