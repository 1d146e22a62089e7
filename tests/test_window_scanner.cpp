#include "dataflow/window_scanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/tensor.h"
#include "test_util.h"

namespace qnn {
namespace {

/// Drive a scanner with a tensor's depth-first stream, storing each value
/// into a PixelRing the way the pooling kernel does, and collect every
/// completed window keyed by output position.
struct ScanResult {
  std::vector<WindowScanner::Completed> positions;
  std::vector<std::vector<std::int32_t>> windows;
  std::int64_t pad_injections = 0;
  std::int64_t real_values = 0;
};

ScanResult scan(WindowScanner& s, const IntTensor& in) {
  ScanResult r;
  PixelRing ring(s);
  std::int64_t next = 0;
  while (!s.done()) {
    if (s.next_is_padding()) {
      ring.store(s, {}, 1);
      ++r.pad_injections;
    } else {
      ring.store(s, std::span<const std::int32_t>(&in[next++], 1), 1);
      ++r.real_values;
    }
    const auto completed = s.advance();
    if (completed) {
      r.positions.push_back(*completed);
      r.windows.push_back(testutil::gather_window(ring, s, *completed));
    }
  }
  EXPECT_EQ(next, in.size()) << "scanner consumed wrong number of values";
  return r;
}

/// scan() again, but advancing by runs the way the window kernels do:
/// each real run or padding stretch cut into random pieces (1..max_piece
/// values), windows gathered from the run each advance_run reports.
ScanResult scan_runs(WindowScanner& s, const IntTensor& in, Rng& rng,
                     std::int64_t max_piece) {
  ScanResult r;
  PixelRing ring(s);
  const std::span<const std::int32_t> flat = in.flat();
  std::size_t next = 0;
  const auto collect = [&](const WindowScanner::Run& run) {
    for (int i = 0; i < run.count; ++i) {
      const WindowScanner::Completed at{run.oy, run.ox0 + i};
      r.positions.push_back(at);
      r.windows.push_back(testutil::gather_window(ring, s, at));
    }
  };
  while (!s.done()) {
    const std::int64_t pad = s.pad_run();
    const std::int64_t room = pad > 0 ? pad : s.real_run();
    const std::int64_t n = std::min<std::int64_t>(
        room, 1 + static_cast<std::int64_t>(rng.next_below(
                      static_cast<std::uint64_t>(max_piece))));
    if (pad > 0) {
      ring.store(s, {}, n);
      collect(s.advance_run(n));
      r.pad_injections += n;
    } else {
      ring.store(s, flat.subspan(next, static_cast<std::size_t>(n)), n);
      collect(s.advance_run(n));
      next += static_cast<std::size_t>(n);
      r.real_values += n;
    }
  }
  EXPECT_EQ(next, flat.size()) << "scanner consumed wrong number of values";
  return r;
}

/// Parameterized sweep over (H, W, C, K, stride, pad) geometries: windows
/// must match a direct gather from the padded tensor, in raster order.
struct Geometry {
  int h, w, c, k, stride, pad;
};

class WindowScannerSweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(WindowScannerSweep, WindowsMatchDirectGather) {
  const Geometry g = GetParam();
  const Shape in_shape{g.h, g.w, g.c};
  Rng rng(1000 + static_cast<std::uint64_t>(g.h * 31 + g.k));
  const IntTensor in = testutil::random_codes(in_shape, 4, rng);
  WindowScanner s(in_shape, g.k, g.stride, g.pad);
  const ScanResult r = scan(s, in);

  const int oh = conv_out_extent(g.h, g.k, g.stride, g.pad);
  const int ow = conv_out_extent(g.w, g.k, g.stride, g.pad);
  ASSERT_EQ(static_cast<int>(r.positions.size()), oh * ow);

  std::size_t idx = 0;
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, ++idx) {
      EXPECT_EQ(r.positions[idx].oy, oy);
      EXPECT_EQ(r.positions[idx].ox, ox);
      std::size_t wpos = 0;
      for (int dy = 0; dy < g.k; ++dy) {
        for (int dx = 0; dx < g.k; ++dx) {
          for (int ci = 0; ci < g.c; ++ci, ++wpos) {
            const int iy = oy * g.stride + dy - g.pad;
            const int ix = ox * g.stride + dx - g.pad;
            const std::int32_t expect =
                (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w)
                    ? 0
                    : in.at(iy, ix, ci);
            ASSERT_EQ(r.windows[idx][wpos], expect)
                << "window (" << oy << "," << ox << ") offset (" << dy << ","
                << dx << "," << ci << ")";
          }
        }
      }
    }
  }
}

TEST_P(WindowScannerSweep, RunAdvanceMatchesPerValueAdvance) {
  // Advancing by whole runs (or random pieces of them) must complete the
  // same windows, in the same order, with the same contents as advancing
  // one value at a time.
  const Geometry g = GetParam();
  const Shape in_shape{g.h, g.w, g.c};
  Rng rng(2000 + static_cast<std::uint64_t>(g.h * 31 + g.k));
  const IntTensor in = testutil::random_codes(in_shape, 4, rng);
  WindowScanner per_value(in_shape, g.k, g.stride, g.pad);
  const ScanResult expect = scan(per_value, in);
  for (const std::int64_t max_piece : {std::int64_t{1}, std::int64_t{5},
                                       std::int64_t{1} << 30}) {
    WindowScanner by_run(in_shape, g.k, g.stride, g.pad);
    const ScanResult got = scan_runs(by_run, in, rng, max_piece);
    ASSERT_EQ(got.positions.size(), expect.positions.size())
        << "max_piece=" << max_piece;
    for (std::size_t i = 0; i < got.positions.size(); ++i) {
      EXPECT_EQ(got.positions[i].oy, expect.positions[i].oy);
      EXPECT_EQ(got.positions[i].ox, expect.positions[i].ox);
    }
    EXPECT_EQ(got.windows, expect.windows) << "max_piece=" << max_piece;
    EXPECT_EQ(got.pad_injections, expect.pad_injections);
    EXPECT_EQ(got.real_values, expect.real_values);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WindowScannerSweep,
    ::testing::Values(Geometry{5, 5, 1, 3, 1, 0},   // plain valid conv
                      Geometry{6, 6, 2, 3, 1, 1},   // same-padded
                      Geometry{8, 8, 3, 3, 2, 1},   // strided + padded
                      Geometry{9, 7, 2, 2, 2, 0},   // non-square, even k
                      Geometry{11, 11, 1, 11, 1, 0},// window == input (FC)
                      Geometry{7, 7, 4, 1, 1, 0},   // 1x1 conv
                      Geometry{12, 12, 2, 3, 4, 0}, // stride > k
                      Geometry{10, 10, 1, 7, 2, 3}, // big window, big pad
                      Geometry{4, 4, 2, 2, 2, 1})); // pad with even k

TEST(WindowScanner, RunsCoverExactlyThePerValueWindows) {
  // Over random geometries (k 1..7, stride 1..3, pad 0..k, ResNet-18
  // conv_0's k = 7, stride 2, pad 3 first), the runs advance_run reports
  // — for whole real runs and padding stretches and for random pieces of
  // them — hold exactly the windows advance() reports one value at a
  // time: the same positions with the same contents, in the same order,
  // none twice and none left out.
  Rng rng(0x5ca9);
  for (int trial = 0; trial < 60; ++trial) {
    Geometry g{9, 11, 3, 7, 2, 3};
    if (trial > 0) {
      g.k = 1 + static_cast<int>(rng.next_below(7));
      g.stride = 1 + static_cast<int>(rng.next_below(3));
      g.pad = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(g.k) + 1));
      const int min_side = std::max(1, g.k - 2 * g.pad);
      g.h = min_side + static_cast<int>(rng.next_below(9));
      g.w = min_side + static_cast<int>(rng.next_below(9));
      g.c = 1 + static_cast<int>(rng.next_below(4));
    }
    const Shape in_shape{g.h, g.w, g.c};
    const IntTensor in = testutil::random_codes(in_shape, 4, rng);
    WindowScanner per_value(in_shape, g.k, g.stride, g.pad);
    const ScanResult expect = scan(per_value, in);
    ASSERT_EQ(static_cast<int>(expect.positions.size()),
              per_value.out_h() * per_value.out_w());
    for (const std::int64_t max_piece :
         {std::int64_t{1}, std::int64_t{7}, std::int64_t{1} << 30}) {
      WindowScanner by_run(in_shape, g.k, g.stride, g.pad);
      const ScanResult got = scan_runs(by_run, in, rng, max_piece);
      const auto where = ::testing::Message()
                         << g.h << "x" << g.w << "x" << g.c << " k=" << g.k
                         << " s=" << g.stride << " p=" << g.pad
                         << " max_piece=" << max_piece;
      ASSERT_EQ(got.positions.size(), expect.positions.size()) << where;
      for (std::size_t i = 0; i < got.positions.size(); ++i) {
        ASSERT_EQ(got.positions[i].oy, expect.positions[i].oy) << where;
        ASSERT_EQ(got.positions[i].ox, expect.positions[i].ox) << where;
      }
      ASSERT_EQ(got.windows, expect.windows) << where;
    }
  }
}

TEST(WindowScanner, PadInjectionCountMatchesFormula) {
  const Shape in{6, 5, 3};
  WindowScanner s(in, 3, 1, 2);
  Rng rng(1);
  const IntTensor t = testutil::random_codes(in, 2, rng);
  const ScanResult r = scan(s, t);
  EXPECT_EQ(r.pad_injections, s.padding_values());
  EXPECT_EQ(r.real_values + r.pad_injections, s.padded_values());
  EXPECT_EQ(s.padding_values(), (10 * 9 - 6 * 5) * 3);
}

TEST(WindowScanner, PaperBufferFormula) {
  // I * (W_padded * (K-1) + K) values (§III-B1b).
  WindowScanner s(Shape{56, 56, 64}, 3, 1, 1);
  EXPECT_EQ(s.paper_buffer_values(), 64 * (58 * 2 + 3));
}

TEST(WindowScanner, ResetAllowsReuseAcrossImages) {
  const Shape in{5, 5, 2};
  WindowScanner s(in, 3, 1, 0);
  Rng rng(2);
  const IntTensor a = testutil::random_codes(in, 4, rng);
  const IntTensor b = testutil::random_codes(in, 4, rng);
  const ScanResult ra = scan(s, a);
  s.reset();
  const ScanResult rb = scan(s, b);
  ASSERT_EQ(ra.windows.size(), rb.windows.size());
  EXPECT_NE(ra.windows, rb.windows);  // different images, different windows
  // Re-scanning image a after reset reproduces the original windows.
  s.reset();
  const ScanResult ra2 = scan(s, a);
  EXPECT_EQ(ra.windows, ra2.windows);
}

TEST(WindowScanner, RejectsOversizedWindow) {
  EXPECT_THROW(WindowScanner(Shape{4, 4, 1}, 7, 1, 0), Error);
}

}  // namespace
}  // namespace qnn
