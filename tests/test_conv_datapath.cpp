// Randomized property suite pinning both conv datapaths — the word-packed
// bit-plane path for 1-2-bit inputs (bit-plane line buffers + splice
// window assembly + vec_ops filter-lane window dot) and the byte path for
// 3-16-bit inputs (byte line buffers + memcpy windows + vec_ops dot_bytes)
// — to the plain integer reference reference_pm1_dot, across activation
// widths 1..8, 9, 12 and 16, window lengths chosen to straddle word
// boundaries (63/64/65/127/129), all-padding windows, strides, ResNet-18's
// 7x7 stride-2 input layer, multi-image streams, filter counts that are not
// a multiple of the 8- or 16-filter lane group, and every SIMD dispatch
// level on the host.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/bitplanes.h"
#include "core/simd/vec_ops.h"
#include "dataflow/kernels.h"
#include "test_util.h"

namespace qnn {
namespace {

Node conv_node(Shape in, int out_c, int k, int stride, int pad, int in_bits) {
  Node n;
  n.kind = NodeKind::Conv;
  n.name = "conv_dp";
  n.in = in;
  n.out = conv_out_shape(in, out_c, k, stride, pad);
  n.in_bits = in_bits;
  n.out_bits = preact_bits(static_cast<std::int64_t>(k) * k * in.c, in_bits);
  n.k = k;
  n.stride = stride;
  n.pad = pad;
  n.param = 0;
  return n;
}

/// Plain integer convolution via reference_pm1_dot per output position:
/// gather the (dy, dx, ci) window with zero padding, dot against the
/// filter's +-1 weights. No bit packing anywhere.
std::vector<std::int32_t> reference_conv(const Node& n, const FilterBank& fb,
                                         const IntTensor& img) {
  const auto win =
      static_cast<std::size_t>(n.k) * static_cast<std::size_t>(n.k) *
      static_cast<std::size_t>(n.in.c);
  std::vector<std::int32_t> out;
  std::vector<std::int32_t> codes(win);
  std::vector<std::int8_t> w_pm1(win);
  for (int oy = 0; oy < n.out.h; ++oy) {
    for (int ox = 0; ox < n.out.w; ++ox) {
      std::size_t i = 0;
      for (int dy = 0; dy < n.k; ++dy) {
        for (int dx = 0; dx < n.k; ++dx) {
          const int y = oy * n.stride + dy - n.pad;
          const int x = ox * n.stride + dx - n.pad;
          const bool in_map =
              y >= 0 && y < n.in.h && x >= 0 && x < n.in.w;
          for (int ci = 0; ci < n.in.c; ++ci) {
            codes[i++] = in_map ? img.at(y, x, ci) : 0;
          }
        }
      }
      for (int o = 0; o < n.out.c; ++o) {
        i = 0;
        for (int dy = 0; dy < n.k; ++dy) {
          for (int dx = 0; dx < n.k; ++dx) {
            for (int ci = 0; ci < n.in.c; ++ci) {
              w_pm1[i++] =
                  static_cast<std::int8_t>(fb.signed_weight(o, dy, dx, ci));
            }
          }
        }
        out.push_back(reference_pm1_dot(w_pm1, codes));
      }
    }
  }
  return out;
}

/// Run a ConvKernel over `images` streamed back to back and collect every
/// output value.
std::vector<std::int32_t> run_conv(const Node& n, const FilterBank& fb,
                                   const std::vector<IntTensor>& images) {
  Stream sin(256, 16, "in");
  Stream sout(256, 32, "out");
  ConvKernel kernel(n, fb, sin, {&sout});
  std::vector<std::int32_t> in;
  for (const auto& img : images) {
    const std::vector<std::int32_t> v = testutil::values(img);
    in.insert(in.end(), v.begin(), v.end());
  }
  return testutil::drive(kernel, sin, std::move(in), sout);
}

/// Restores the process-wide SIMD dispatch level after each test.
class PackedConvTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_level(std::nullopt); }
};

struct Geometry {
  Shape in;
  int out_c;
  int k;
  int stride;
  int pad;
};

// Channel counts 63/64/65 with k=1 put the per-plane window length exactly
// at/around one word; 3*3*c geometries put it around 2 words (127/129 via
// c=14 is not integral, so use k=1 c=127/129 directly). k=2 pad=2 makes
// entire windows (corners) pure padding; stride 2 exercises row-phase
// recycling; k=h=w is the dense/global case (window == whole padded map).
const Geometry kGeometries[] = {
    {{4, 5, 3}, 3, 3, 1, 1},    // classic 3x3 same-pad
    {{3, 4, 63}, 2, 1, 1, 0},   // 63-bit planes (sub-word tail)
    {{3, 3, 64}, 2, 1, 1, 0},   // exactly one word per plane
    {{2, 3, 65}, 2, 1, 1, 0},   // word + 1-bit straddle
    {{2, 2, 127}, 2, 1, 1, 0},  // two words minus one
    {{2, 2, 129}, 2, 1, 1, 0},  // two words plus one
    {{4, 4, 4}, 2, 2, 1, 2},    // pad 2 > k-1: all-padding windows exist
    {{5, 5, 3}, 2, 3, 2, 1},    // strided scan
    {{6, 5, 2}, 3, 2, 2, 0},    // strided, even k, no pad
    {{3, 3, 5}, 2, 3, 1, 0},    // dense: window == whole map
    {{9, 8, 3}, 5, 7, 2, 3},    // ResNet-18 conv_0's 7x7 stride 2 pad 3
};

TEST_F(PackedConvTest, PackedMatchesReferenceAcrossBitsAndGeometries) {
  Rng rng(0xdada);
  for (const int bits : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16}) {
    for (const auto& g : kGeometries) {
      const Node n = conv_node(g.in, g.out_c, g.k, g.stride, g.pad, bits);
      const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
      const IntTensor img = testutil::random_codes(g.in, bits, rng);
      const auto expect = reference_conv(n, fb, img);
      ASSERT_EQ(run_conv(n, fb, {img}), expect)
          << "bits=" << bits << " in=" << g.in.h << "x" << g.in.w << "x"
          << g.in.c << " k=" << g.k << " s=" << g.stride << " p=" << g.pad;
    }
  }
}

TEST_F(PackedConvTest, PackedMatchesReferenceAtEveryDispatchLevel) {
  Rng rng(0xdadc);
  const Node n = conv_node({4, 5, 65}, 3, 3, 1, 1, 2);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  const IntTensor img = testutil::random_codes(n.in, 2, rng);
  const auto expect = reference_conv(n, fb, img);
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    ASSERT_EQ(run_conv(n, fb, {img}), expect)
        << "level=" << simd::level_name(level);
  }
}

TEST_F(PackedConvTest, PackedHandlesMultipleImagesBackToBack) {
  Rng rng(0xdadd);
  const Node n = conv_node({3, 4, 5}, 2, 2, 1, 1, 3);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  std::vector<IntTensor> images;
  std::vector<std::int32_t> expect;
  for (int i = 0; i < 3; ++i) {
    images.push_back(testutil::random_codes(n.in, 3, rng));
    const auto one = reference_conv(n, fb, images.back());
    expect.insert(expect.end(), one.begin(), one.end());
  }
  EXPECT_EQ(run_conv(n, fb, images), expect);
}

TEST_F(PackedConvTest, ByteDatapathMatchesReferenceOnResnetConv0AtEveryLevel) {
  // ResNet-18's input layer (7x7x3, stride 2, pad 3, 8-bit codes) on
  // smaller maps, three images back to back: 147-value windows (36 quads
  // and a partial one), a ring of seven rows recycled across image
  // boundaries, and 64 filters = one four-group AVX-512 block; a 13x15
  // map gives 7x8 windows per image, a 13x13 map an odd 7x7, so its last
  // window is dotted without a partner. A run with 16-bit codes and 17
  // filters takes both byte-planes and a one-filter last group.
  Rng rng(0xdae1);
  struct Run {
    int bits;
    int out_c;
    int w;
  };
  for (const auto& [bits, out_c, w] :
       {Run{8, 64, 15}, Run{16, 17, 15}, Run{8, 64, 13}}) {
    const Node n = conv_node({13, w, 3}, out_c, 7, 2, 3, bits);
    const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
    std::vector<IntTensor> images;
    std::vector<std::int32_t> expect;
    for (int i = 0; i < 3; ++i) {
      images.push_back(testutil::random_codes(n.in, bits, rng));
      const auto one = reference_conv(n, fb, images.back());
      expect.insert(expect.end(), one.begin(), one.end());
    }
    for (const simd::Level level : simd::available_levels()) {
      simd::set_level(level);
      ASSERT_EQ(run_conv(n, fb, images), expect)
          << "level=" << simd::level_name(level) << " bits=" << bits
          << " w=" << w;
    }
  }
}

TEST_F(PackedConvTest, PackedMatchesReferenceWhenFilterCountIsNotALaneMultiple) {
  // A 10-class dense head (k = whole map, out.c % 8 != 0): the second
  // filter-lane group carries six zero pad filters whose lanes must never
  // reach the output, at every dispatch level.
  Rng rng(0xdadf);
  const Node n = conv_node({4, 4, 32}, 10, 4, 1, 0, 2);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  std::vector<IntTensor> images;
  std::vector<std::int32_t> expect;
  for (int i = 0; i < 2; ++i) {
    images.push_back(testutil::random_codes(n.in, 2, rng));
    const auto one = reference_conv(n, fb, images.back());
    expect.insert(expect.end(), one.begin(), one.end());
  }
  ASSERT_EQ(expect.size(), 20u);
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    ASSERT_EQ(run_conv(n, fb, images), expect)
        << "level=" << simd::level_name(level);
  }
}

TEST_F(PackedConvTest, PackedMatchesReferenceOnVgg32ClassifierAtEveryLevel) {
  // VGG-32's last layer: dense 512 -> 10 over 2-bit codes, a 1x1 window
  // of eight whole words per plane (the memcpy window path). The second
  // filter-lane group holds two real filters; each level must write
  // exactly the ten responses per image, bit-exact.
  Rng rng(0xdae0);
  const Node n = conv_node({1, 1, 512}, 10, 1, 1, 0, 2);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  std::vector<IntTensor> images;
  std::vector<std::int32_t> expect;
  for (int i = 0; i < 5; ++i) {
    images.push_back(testutil::random_codes(n.in, 2, rng));
    const auto one = reference_conv(n, fb, images.back());
    expect.insert(expect.end(), one.begin(), one.end());
  }
  ASSERT_EQ(expect.size(), 50u);
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    ASSERT_EQ(run_conv(n, fb, images), expect)
        << "level=" << simd::level_name(level);
  }
}

TEST_F(PackedConvTest, PackedMatchesReferenceOnAllPaddingWindows) {
  // pad = 2 with k = 2: the four corner windows contain no real value at
  // all, so the line buffer rows they read were never written by an
  // ingest — only recycled (zero-cleared).
  Rng rng(0xdade);
  const Node n = conv_node({4, 4, 7}, 2, 2, 1, 2, 2);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  const IntTensor img = testutil::random_codes(n.in, 2, rng);
  EXPECT_EQ(run_conv(n, fb, {img}), reference_conv(n, fb, img));
}

// ------------------------------------------------------------ window pairs

/// The conv kernel dots completed windows two at a time; these pin what
/// pairing must not change: the responses of every window, in order, with
/// a lone window (odd counts, one-window images, a run's end) dotted alone.
using ConvPairTest = PackedConvTest;

/// Three images back to back through one kernel, against the reference.
void expect_three_images_match(const Node& n, Rng& rng) {
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  std::vector<IntTensor> images;
  std::vector<std::int32_t> expect;
  for (int i = 0; i < 3; ++i) {
    images.push_back(testutil::random_codes(n.in, n.in_bits, rng));
    const auto one = reference_conv(n, fb, images.back());
    expect.insert(expect.end(), one.begin(), one.end());
  }
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    ASSERT_EQ(run_conv(n, fb, images), expect)
        << "level=" << simd::level_name(level) << " bits=" << n.in_bits
        << " in=" << n.in.h << "x" << n.in.w << "x" << n.in.c;
  }
}

TEST_F(ConvPairTest, OddWindowCountPerImageAtEveryLevel) {
  // 5x7 = 35 windows per image: each image ends on a lone window, so with
  // three images back to back a pair would straddle every image boundary
  // if the lone one were not dotted before the flush that ends its image.
  // Both datapaths, both plane counts of each.
  Rng rng(0xda11);
  for (const int bits : {1, 2, 8, 16}) {
    expect_three_images_match(conv_node({5, 7, 3}, 9, 3, 1, 1, bits), rng);
  }
}

TEST_F(ConvPairTest, DenseHeadWithOneWindowPerImageAtEveryLevel) {
  // A 1x1-map dense head: the one window of each image is never paired.
  Rng rng(0xda12);
  for (const int bits : {2, 8}) {
    expect_three_images_match(conv_node({3, 3, 40}, 10, 3, 1, 0, bits), rng);
  }
}

TEST_F(ConvPairTest, ResetDropsAPendingWindowAtEveryLevel) {
  // 3x3, pad 1, on a 5-wide map, fed the first two rows only. One step
  // dots the windows at x = 0..3 (two pairs) and flushes them; in its next
  // round, padding the row's right edge completes the window at x = 4,
  // and the input is then empty, so the step returns with that window
  // pending. An aborted run stops there: reset() must drop it, so the
  // next image on the same kernel comes out bit-exact (a stale window
  // would pair with the next run's first one).
  Rng rng(0xda14);
  for (const int bits : {2, 8}) {
    const Node n = conv_node({4, 5, 3}, 9, 3, 1, 1, bits);
    const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
    const IntTensor aborted = testutil::random_codes(n.in, bits, rng);
    const IntTensor next = testutil::random_codes(n.in, bits, rng);
    const auto o = static_cast<std::size_t>(n.out.c);
    const std::vector<std::int32_t> aborted_ref =
        reference_conv(n, fb, aborted);
    for (const simd::Level level : simd::available_levels()) {
      simd::set_level(level);
      Stream sin(256, 16, "in");
      Stream sout(256, 32, "out");
      ConvKernel kernel(n, fb, sin, {&sout});
      const std::vector<std::int32_t> vals = testutil::values(aborted);
      const std::size_t two_rows = 2 * 5 * 3;
      ASSERT_EQ(sin.try_push_burst(
                    std::span<const std::int32_t>(vals).first(two_rows)),
                two_rows);
      (void)kernel.step_checked();
      std::vector<std::int32_t> got(256);
      got.resize(sout.try_pop_burst(got));
      ASSERT_EQ(got, std::vector<std::int32_t>(
                         aborted_ref.begin(),
                         aborted_ref.begin() +
                             static_cast<std::ptrdiff_t>(4 * o)))
          << "level=" << simd::level_name(level) << " bits=" << bits;
      kernel.reset();
      sin.reset();
      sout.reset();
      EXPECT_EQ(testutil::drive(kernel, sin, testutil::values(next), sout),
                reference_conv(n, fb, next))
          << "level=" << simd::level_name(level) << " bits=" << bits;
    }
  }
}

}  // namespace
}  // namespace qnn
