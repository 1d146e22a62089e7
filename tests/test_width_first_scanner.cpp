#include "dataflow/width_first_scanner.h"

#include <gtest/gtest.h>

#include "dataflow/window_scanner.h"
#include "test_util.h"

namespace qnn {
namespace {

struct Result {
  std::vector<WidthFirstScanner::Completed> positions;
  std::vector<std::vector<std::int32_t>> windows;
};

/// Drive a width-first scanner with a tensor's channel-major padded walk.
Result scan_width_first_padded(WidthFirstScanner& s, const IntTensor& in,
                               int pad) {
  Result r;
  const Shape& shape = in.shape();
  const int hp = shape.h + 2 * pad;
  const int wp = shape.w + 2 * pad;
  for (int c = 0; c < shape.c; ++c) {
    for (int y = 0; y < hp; ++y) {
      for (int x = 0; x < wp; ++x) {
        const bool padding = y < pad || y >= pad + shape.h || x < pad ||
                             x >= pad + shape.w;
        EXPECT_EQ(s.next_is_padding(), padding);
        const std::int32_t v =
            padding ? 0 : in.at(y - pad, x - pad, c);
        const auto completed = s.advance(v);
        if (completed) {
          std::vector<std::int32_t> w(
              static_cast<std::size_t>(s.window_values()));
          s.window(*completed, w);
          r.positions.push_back(*completed);
          r.windows.push_back(std::move(w));
        }
      }
    }
  }
  EXPECT_TRUE(s.done());
  return r;
}

struct Geometry {
  int h, w, c, k, stride, pad;
};

class WidthFirstSweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(WidthFirstSweep, ProducesSameWindowsAsDepthFirst) {
  const Geometry g = GetParam();
  const Shape in_shape{g.h, g.w, g.c};
  Rng rng(2000 + static_cast<std::uint64_t>(g.h * 7 + g.c));
  const IntTensor in = testutil::random_codes(in_shape, 4, rng);

  // Depth-first baseline.
  WindowScanner df(in_shape, g.k, g.stride, g.pad);
  PixelRing ring(df);
  std::vector<std::vector<std::int32_t>> df_windows;
  std::int64_t next = 0;
  while (!df.done()) {
    const std::int32_t v = df.next_is_padding() ? 0 : in[next++];
    ring.store(df, std::span<const std::int32_t>(&v, 1), 1);
    const auto completed = df.advance();
    if (completed) {
      df_windows.push_back(testutil::gather_window(ring, df, *completed));
    }
  }

  WidthFirstScanner wf(in_shape, g.k, g.stride, g.pad);
  const Result r = scan_width_first_padded(wf, in, g.pad);
  ASSERT_EQ(r.windows.size(), df_windows.size());
  // Both emit windows in raster order of output positions.
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    EXPECT_EQ(r.windows[i], df_windows[i]) << "window " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WidthFirstSweep,
    ::testing::Values(Geometry{5, 5, 3, 3, 1, 0},
                      Geometry{6, 6, 2, 3, 1, 1},
                      Geometry{8, 8, 4, 3, 2, 1},
                      Geometry{7, 9, 2, 2, 2, 0},
                      Geometry{6, 6, 1, 3, 1, 1},   // single channel
                      Geometry{10, 10, 3, 5, 2, 2}));

TEST(WidthFirst, BufferFormulaMatchesPaper) {
  // H_p*W_p*(I-1) + W_p*(K-1) + K on the padded map (§III-B1b).
  WidthFirstScanner s(Shape{56, 56, 64}, 3, 1, 1);
  EXPECT_EQ(s.buffer_values(), 58LL * 58 * 63 + 58 * 2 + 3);
  WindowScanner df(Shape{56, 56, 64}, 3, 1, 1);
  // The depth-first buffer is well over an order of magnitude smaller.
  EXPECT_GT(s.buffer_values(), 25 * df.paper_buffer_values());
}

TEST(WidthFirst, ResetAllowsReuse) {
  const Shape in{5, 5, 2};
  Rng rng(3);
  const IntTensor img = testutil::random_codes(in, 4, rng);
  WidthFirstScanner s(in, 3, 1, 0);
  const Result a = scan_width_first_padded(s, img, 0);
  s.reset();
  const Result b = scan_width_first_padded(s, img, 0);
  EXPECT_EQ(a.windows, b.windows);
}

TEST(WidthFirst, RejectsOversizedWindow) {
  EXPECT_THROW(WidthFirstScanner(Shape{4, 4, 2}, 7, 1, 0), Error);
}

}  // namespace
}  // namespace qnn
