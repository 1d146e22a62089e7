// Unit tests of the individual dataflow kernels, driven through raw
// streams on one thread (no engine, no executor), including
// protocol-violation failure injection.
#include "dataflow/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "nn/reference.h"

#include "test_util.h"

namespace qnn {
namespace {

Node conv_node(Shape in, int out_c, int k, int stride, int pad,
               int in_bits) {
  Node n;
  n.kind = NodeKind::Conv;
  n.name = "conv_t";
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

using testutil::drive;
using testutil::values;

TEST(ConvKernelTest, AllPlusOneFilterComputesWindowSums) {
  const Shape in{4, 4, 1};
  const Node n = conv_node(in, 1, 2, 1, 0, 4);
  WeightTensor w(FilterShape{1, 2, 1});
  for (auto& x : w.raw()) x = 1.0f;
  const FilterBank fb = FilterBank::binarize(w);

  Stream sin(64, 4, "in");
  Stream sout(64, 16, "out");
  ConvKernel kernel(n, fb, sin, {&sout});

  IntTensor img(in);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) img.at(y, x, 0) = y * 4 + x;
  }
  const auto out = drive(kernel, sin, values(img), sout);
  ASSERT_EQ(out.size(), 9u);  // 3x3 output positions
  EXPECT_EQ(out[0], 0 + 1 + 4 + 5);
  EXPECT_EQ(out[4], 5 + 6 + 9 + 10);
  EXPECT_EQ(out[8], 10 + 11 + 14 + 15);
}

TEST(ConvKernelTest, EmitsAllFiltersPerPosition) {
  const Shape in{2, 2, 2};
  const Node n = conv_node(in, 3, 2, 1, 0, 2);
  Rng rng(5);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  Stream sin(32, 2, "in");
  Stream sout(32, 8, "out");
  ConvKernel kernel(n, fb, sin, {&sout});
  IntTensor img = testutil::random_codes(in, 2, rng);
  const auto out = drive(kernel, sin, values(img), sout);
  ASSERT_EQ(out.size(), 3u);  // one position, three filters
  for (int o = 0; o < 3; ++o) {
    std::int32_t expect = 0;
    for (int dy = 0; dy < 2; ++dy) {
      for (int dx = 0; dx < 2; ++dx) {
        for (int ci = 0; ci < 2; ++ci) {
          expect += fb.signed_weight(o, dy, dx, ci) * img.at(dy, dx, ci);
        }
      }
    }
    EXPECT_EQ(out[static_cast<std::size_t>(o)], expect) << "filter " << o;
  }
}

TEST(ConvKernelTest, ProcessesMultipleImagesBackToBack) {
  const Shape in{3, 3, 1};
  const Node n = conv_node(in, 1, 3, 1, 0, 4);
  WeightTensor w(FilterShape{1, 3, 1});
  for (auto& x : w.raw()) x = 1.0f;
  const FilterBank fb = FilterBank::binarize(w);
  Stream sin(64, 4, "in");
  Stream sout(64, 16, "out");
  ConvKernel kernel(n, fb, sin, {&sout});
  IntTensor a(in, 1);  // all ones: window sum = 9
  IntTensor b(in, 2);  // all twos: window sum = 18
  std::vector<std::int32_t> both = values(a);
  const std::vector<std::int32_t> second = values(b);
  both.insert(both.end(), second.begin(), second.end());
  const auto out = drive(kernel, sin, both, sout);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[1], 18);
}

TEST(ConvKernelTest, ClosedMidImageIsProtocolError) {
  const Shape in{3, 3, 1};
  const Node n = conv_node(in, 1, 3, 1, 0, 4);
  Rng rng(6);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  Stream sin(64, 4, "in");
  Stream sout(64, 16, "out");
  ConvKernel kernel(n, fb, sin, {&sout});
  // 4 of 9 values, then close.
  EXPECT_THROW((void)drive(kernel, sin, {1, 1, 1, 1}, sout), Error);
}

TEST(PoolKernelTest, MaxAndSumReductions) {
  Node n;
  n.kind = NodeKind::MaxPool;
  n.name = "pool_t";
  n.in = Shape{2, 2, 2};
  n.out = Shape{1, 1, 2};
  n.in_bits = n.out_bits = 4;
  n.k = 2;
  n.stride = 2;
  n.pad = 0;

  Stream sin(32, 4, "in");
  Stream sout(32, 4, "out");
  PoolKernel kernel(n, sin, {&sout});
  IntTensor img(n.in);
  img.at(0, 0, 0) = 3;
  img.at(0, 1, 0) = 7;
  img.at(1, 0, 0) = 1;
  img.at(1, 1, 0) = 5;
  img.at(0, 0, 1) = 2;
  img.at(0, 1, 1) = 2;
  img.at(1, 0, 1) = 9;
  img.at(1, 1, 1) = 4;
  const auto out = drive(kernel, sin, values(img), sout);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 9);

  // Same geometry as an average (window-sum) pool.
  n.kind = NodeKind::AvgPool;
  n.out_bits = 6;
  Stream sin2(32, 4, "in2");
  Stream sout2(32, 6, "out2");
  PoolKernel sum_kernel(n, sin2, {&sout2});
  const auto sums = drive(sum_kernel, sin2, values(img), sout2);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], 3 + 7 + 1 + 5);
  EXPECT_EQ(sums[1], 2 + 2 + 9 + 4);
}

TEST(PoolKernelTest, AsymmetricPaddingRegression) {
  // k=2, stride=2, pad=1 on a 3x3 map: every window sees a different
  // amount of padding (3 pad values at the top-left corner, 2 on edges,
  // 0 at the interior position). Pins the channel-contiguous reduction to
  // a plain per-window reference, bit-exactly, for max and sum pooling.
  Node n;
  n.kind = NodeKind::MaxPool;
  n.name = "pool_asym";
  n.in = Shape{3, 3, 2};
  n.out = Shape{2, 2, 2};
  n.in_bits = n.out_bits = 6;
  n.k = 2;
  n.stride = 2;
  n.pad = 1;

  IntTensor img(n.in);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      for (int c = 0; c < 2; ++c) img.at(y, x, c) = y * 16 + x * 4 + c + 1;
    }
  }
  // Reference: reduce each (possibly padded) window directly.
  std::vector<std::int32_t> expect_max;
  std::vector<std::int32_t> expect_sum;
  for (int oy = 0; oy < 2; ++oy) {
    for (int ox = 0; ox < 2; ++ox) {
      for (int c = 0; c < 2; ++c) {
        std::int32_t best = 0;
        std::int32_t sum = 0;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            const int y = oy * 2 + dy - 1;
            const int x = ox * 2 + dx - 1;
            const std::int32_t v =
                (y >= 0 && y < 3 && x >= 0 && x < 3) ? img.at(y, x, c) : 0;
            best = std::max(best, v);
            sum += v;
          }
        }
        expect_max.push_back(best);
        expect_sum.push_back(sum);
      }
    }
  }

  Stream sin(64, 6, "in");
  Stream sout(64, 6, "out");
  PoolKernel max_kernel(n, sin, {&sout});
  EXPECT_EQ(drive(max_kernel, sin, values(img), sout), expect_max);

  n.kind = NodeKind::AvgPool;
  n.out_bits = 8;
  Stream sin2(64, 6, "in2");
  Stream sout2(64, 8, "out2");
  PoolKernel sum_kernel(n, sin2, {&sout2});
  EXPECT_EQ(drive(sum_kernel, sin2, values(img), sout2), expect_sum);
}

/// One pooling layer of the paper's networks, max and average alike.
struct PoolGeometry {
  const char* name;
  Shape in;
  int k, stride, pad;
};

// Test names print the parameter: its name, never the pointer.
void PrintTo(const PoolGeometry& g, std::ostream* os) { *os << g.name; }

/// The kernel's output for `img`, streamed twice back to back (the second
/// image must not see the first one's ring contents), against
/// ReferenceExecutor on a one-node pipeline whose input is `in_bits` wide.
void expect_pool_matches_reference(const PoolGeometry& g, NodeKind kind,
                                   const IntTensor& img, int in_bits = 8) {
  Pipeline p;
  p.name = g.name;
  p.input = g.in;
  Node n;
  n.kind = kind;
  n.name = g.name;
  n.in = g.in;
  n.out = conv_out_shape(g.in, g.in.c, g.k, g.stride, g.pad);
  n.in_bits = in_bits;
  n.out_bits = kind == NodeKind::MaxPool ? in_bits : 32;
  n.k = g.k;
  n.stride = g.stride;
  n.pad = g.pad;
  p.nodes.push_back(n);
  const NetworkParams params{};
  const IntTensor expect = ReferenceExecutor(p, params).run(img);

  const auto row = static_cast<std::size_t>(g.in.w) *
                   static_cast<std::size_t>(g.in.c);
  Stream sin(2 * row, in_bits, "in");
  Stream sout(2 * row, 32, "out");
  PoolKernel kernel(p.nodes.front(), sin, {&sout});
  std::vector<std::int32_t> twice = values(img);
  twice.insert(twice.end(), twice.begin(), twice.end());
  const auto got = drive(kernel, sin, twice, sout);
  const std::span<const std::int32_t> want = expect.flat();
  ASSERT_EQ(got.size(), 2 * want.size()) << g.name;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i % want.size()])
        << g.name << (kind == NodeKind::MaxPool ? " max" : " avg")
        << " output " << i;
  }
}

class PoolVsReference : public ::testing::TestWithParam<PoolGeometry> {};

TEST_P(PoolVsReference, MaxAndAvgMatchReferenceExecutor) {
  const PoolGeometry& g = GetParam();
  Rng rng(77 + static_cast<std::uint64_t>(g.in.c * 3 + g.k));
  const IntTensor img = testutil::random_codes(g.in, 4, rng);
  expect_pool_matches_reference(g, NodeKind::MaxPool, img);
  expect_pool_matches_reference(g, NodeKind::AvgPool, img);
}

INSTANTIATE_TEST_SUITE_P(
    PaperLayers, PoolVsReference,
    ::testing::Values(
        // ResNet-18 maxpool_2 (3x3, stride 2, pad 1, 64 channels).
        PoolGeometry{"resnet_maxpool_2", {112, 112, 64}, 3, 2, 1},
        // VGG-like 2x2 / stride 2.
        PoolGeometry{"vgg_2x2_s2", {32, 32, 64}, 2, 2, 0},
        // AlexNet 3x3 / stride 2, unpadded.
        PoolGeometry{"alexnet_3x3_s2", {27, 27, 96}, 3, 2, 0},
        // Global average pooling over ResNet-18's last map.
        PoolGeometry{"global_7x7x512", {7, 7, 512}, 7, 1, 0},
        // Three channels, padded and strided.
        PoolGeometry{"c3_3x3_s2_p1", {9, 9, 3}, 3, 2, 1}),
    [](const ::testing::TestParamInfo<PoolGeometry>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(PoolKernelTest, AverageSumWrapsToInt32LikeTheReference) {
  // Window sums are 32-bit: a sum past INT32_MAX wraps exactly as the
  // reference's int64 sum narrowed to the int32 output does.
  const PoolGeometry g{"wrap", {2, 2, 2}, 2, 2, 0};
  IntTensor img(g.in);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = std::numeric_limits<std::int32_t>::max() -
             static_cast<std::int32_t>(i);
  }
  expect_pool_matches_reference(g, NodeKind::AvgPool, img, 31);
  Node n;
  n.kind = NodeKind::AvgPool;
  n.name = "wrap";
  n.in = g.in;
  n.out = Shape{1, 1, 2};
  n.in_bits = 31;
  n.out_bits = 32;
  n.k = n.stride = 2;
  Stream sin(8, 31, "in");
  Stream sout(8, 32, "out");
  PoolKernel kernel(n, sin, {&sout});
  const auto got = drive(kernel, sin, values(img), sout);
  for (int c = 0; c < 2; ++c) {
    std::int64_t sum = 0;
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 2; ++x) sum += img.at(y, x, c);
    }
    EXPECT_EQ(got[static_cast<std::size_t>(c)],
              static_cast<std::int32_t>(sum));
  }
}

/// A BnAct node of `channels` channels over a 1 x `w` map.
Node bnact_node(int w, int channels, int in_bits, int out_bits) {
  Node n;
  n.kind = NodeKind::BnAct;
  n.name = "bnact_t";
  n.in = n.out = Shape{1, w, channels};
  n.in_bits = in_bits;
  n.out_bits = out_bits;
  n.param = 0;
  return n;
}

/// Every value `s` holds, popped in order.
std::vector<std::int32_t> pop_all(Stream& s) {
  std::vector<std::int32_t> got(s.capacity());
  got.resize(s.try_pop_burst(got));
  return got;
}

TEST(OutStageTest, PerChannelThresholdsInDepthFirstOrder) {
  const Node n = bnact_node(2, 2, 8, 2);
  // Channel 0: identity BatchNorm, d=2 (codes 0..3 at 2,4,6).
  // Channel 1: negated BatchNorm.
  BnLayerParams bn(2);
  bn.at(1).gamma = -1.0f;
  const ActQuantizer q(2, 2.0);
  const ThresholdLayer thresholds = ThresholdLayer::fold(bn, q);

  Stream sout(32, 2, "out");
  OutStage port(PortRings({}, {PortAct{&n, &thresholds, -1, {&sout}}}));
  // (x=0: c0=5, c1=-5), (x=1: c0=1, c1=-7)
  const std::vector<std::int32_t> sums{5, -5, 1, -7};
  ASSERT_TRUE(port.flush(sums));
  const auto out = pop_all(sout);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 2);  // 5 in [4,6)
  EXPECT_EQ(out[1], 2);  // -(-5)=5
  EXPECT_EQ(out[2], 0);  // 1 < 2
  EXPECT_EQ(out[3], 3);  // 7 >= 6

  // A port act checks its bank against the node.
  const Node wide = bnact_node(2, 3, 8, 2);
  EXPECT_THROW(
      OutStage(PortRings({}, {PortAct{&wide, &thresholds, -1, {&sout}}})),
      Error);
}

/// One BatchNorm bank covering every sign class of the folded staircase:
/// positive slope, negative slope, zero slope (constant code), and two
/// near-zero slopes whose thresholds saturate at INT32_MAX / INT32_MIN.
BnLayerParams every_sign_class(int bits, Rng& rng) {
  BnLayerParams bn(5);
  const auto spread = [&rng](double scale) {
    return static_cast<float>((rng.next_double() - 0.5) * scale);
  };
  bn.at(0).gamma = 0.9f;  // +1
  bn.at(0).mu = spread(200.0);
  bn.at(0).beta = spread(4.0);
  bn.at(1).gamma = -0.7f;  // -1
  bn.at(1).mu = spread(200.0);
  bn.at(1).beta = spread(4.0);
  bn.at(2).gamma = 0.0f;  // constant: code of beta
  bn.at(2).beta = static_cast<float>(rng.next_double() * (1 << bits) * 2.0);
  bn.at(3).gamma = 1e-7f;  // +1, every threshold saturates at INT32_MAX
  bn.at(3).beta = -1e3f;
  bn.at(4).gamma = 1e-7f;  // +1, every threshold saturates at INT32_MIN
  bn.at(4).beta = 1e3f;
  return bn;
}

/// Random pre-activations plus the comparator edges of every channel:
/// INT32_MIN, INT32_MAX, 0 and each threshold +-1 on both sides of the
/// sign (a negated-slope channel compares -a), in int64 so no edge wraps.
std::vector<std::int32_t> edge_probes(const ThresholdLayer& layer, Rng& rng) {
  std::vector<std::int64_t> wide = {std::numeric_limits<std::int32_t>::min(),
                                    std::numeric_limits<std::int32_t>::max(),
                                    0};
  for (int i = 0; i < 64; ++i) {
    wide.push_back(static_cast<std::int64_t>(rng.next_below(1u << 21)) -
                   (1 << 20));
  }
  for (int c = 0; c < layer.channels(); ++c) {
    for (const std::int32_t t : layer.at(c).thresholds()) {
      for (const std::int64_t d : {-1, 0, 1}) {
        wide.push_back(std::int64_t{t} + d);
        wide.push_back(-std::int64_t{t} + d);
      }
    }
  }
  std::vector<std::int32_t> out;
  for (const std::int64_t v : wide) {
    if (v >= std::numeric_limits<std::int32_t>::min() &&
        v <= std::numeric_limits<std::int32_t>::max()) {
      out.push_back(static_cast<std::int32_t>(v));
    }
  }
  return out;
}

TEST(ThresholdTableTest, BranchlessSearchMatchesBinarySearch) {
  // The port's [level][channel] table, counted by threshold_codes at
  // every SIMD level, against the literal hardware binary search, for
  // activation widths 1..8 and every sign class, on random
  // pre-activations and every comparator edge.
  Rng rng(0xb4ac7);
  for (int bits = 1; bits <= 8; ++bits) {
    const ActQuantizer q(bits, rng.next_double() * 2.0 + 0.05);
    const ThresholdLayer layer =
        ThresholdLayer::fold(every_sign_class(bits, rng), q);
    ASSERT_EQ(layer.at(0).sign(), 1);
    ASSERT_EQ(layer.at(1).sign(), -1);
    ASSERT_TRUE(layer.at(2).is_constant());
    ASSERT_EQ(layer.at(3).thresholds().front(),
              std::numeric_limits<std::int32_t>::max());
    ASSERT_EQ(layer.at(4).thresholds().back(),
              std::numeric_limits<std::int32_t>::min());
    const ThresholdTable table(layer);
    const std::vector<std::int32_t> probes = edge_probes(layer, rng);
    for (const simd::Level level : simd::available_levels()) {
      const simd::VecOps& ops = simd::vec_ops_at(level);
      for (int c = 0; c < layer.channels(); ++c) {
        for (const std::int32_t a : probes) {
          std::int32_t code = -1;
          table.eval(ops, c, {&a, 1}, &code);
          ASSERT_EQ(code, layer.at(c).eval_binary_search(a))
              << ops.name << " bits=" << bits << " channel=" << c
              << " a=" << a;
        }
      }
    }
  }
}

TEST(OutStageTest, ChannelPhaseCarriesAcrossSplitFlushes) {
  // 5 channels through 7-value flushes: almost every flush starts and ends
  // mid-pixel, so the port must carry the channel phase across flushes.
  // 17-bit pre-activations, as on ResNet-18's first BnAct.
  Rng rng(0xb4ac8);
  const ActQuantizer q(2, 1.5);
  const ThresholdLayer layer =
      ThresholdLayer::fold(every_sign_class(2, rng), q);
  const std::vector<std::int32_t> probes = edge_probes(layer, rng);
  const Node n = bnact_node(static_cast<int>(probes.size()), 5, 17, 2);

  std::vector<std::int32_t> in;
  std::vector<std::int32_t> expect;
  for (std::size_t x = 0; x < probes.size(); ++x) {
    for (int c = 0; c < 5; ++c) {
      // Rotate the probes across channels so each channel sees them all.
      const std::int32_t a =
          probes[(x + static_cast<std::size_t>(c)) % probes.size()];
      in.push_back(a);
      expect.push_back(layer.at(c).eval_binary_search(a));
    }
  }
  // Flushed from the caller's values, and staged (mapped in place).
  for (const bool staged : {false, true}) {
    Stream sout(16, 2, "out");
    OutStage port(PortRings({}, {PortAct{&n, &layer, -1, {&sout}}}));
    std::vector<std::int32_t> got;
    for (std::size_t at = 0; at < in.size(); at += 7) {
      const auto flush = std::span<const std::int32_t>(in).subspan(
          at, std::min<std::size_t>(7, in.size() - at));
      if (staged) {
        std::ranges::copy(flush, port.extend(flush.size()).begin());
        ASSERT_TRUE(port.flush());
      } else {
        ASSERT_TRUE(port.flush(flush));
      }
      const auto codes = pop_all(sout);
      got.insert(got.end(), codes.begin(), codes.end());
    }
    EXPECT_EQ(got, expect) << (staged ? "staged" : "caller's values");
  }
}

TEST(AddKernelTest, SumsAndPropagatesClose) {
  Node n;
  n.kind = NodeKind::Add;
  n.name = "add_t";
  n.in = n.out = Shape{1, 1, 3};
  n.in_bits = n.out_bits = 16;
  n.main_from = 0;
  n.skip_from = 1;

  Stream main(8, 16, "main");
  Stream skip(8, 16, "skip");
  Stream out(8, 16, "out");
  AddKernel kernel(n, main, skip, {&out});
  const auto sums =
      drive(kernel, {{main, {1, 2, 3}}, {skip, {10, 20, 30}}}, {&out})
          .front();
  EXPECT_EQ(sums, (std::vector<std::int32_t>{11, 22, 33}));
  EXPECT_TRUE(out.closed());
}

TEST(AddKernelTest, SkipShorterThanMainIsError) {
  Node n;
  n.kind = NodeKind::Add;
  n.name = "add_t";
  n.in = n.out = Shape{1, 1, 2};
  n.in_bits = n.out_bits = 16;
  n.skip_from = 0;
  Stream main(8, 16, "main");
  Stream skip(8, 16, "skip");
  Stream out(8, 16, "out");
  AddKernel kernel(n, main, skip, {&out});
  // Skip stream one value short.
  EXPECT_THROW((void)drive(kernel, {{main, {1, 2}}, {skip, {1}}}, {&out}),
               Error);
}

TEST(AddKernelTest, MainShorterThanSkipIsError) {
  Node n;
  n.kind = NodeKind::Add;
  n.name = "add_t";
  n.in = n.out = Shape{1, 1, 2};
  n.in_bits = n.out_bits = 16;
  n.skip_from = 0;
  Stream main(8, 16, "main");
  Stream skip(8, 16, "skip");
  Stream out(8, 16, "out");
  AddKernel kernel(n, main, skip, {&out});
  // Skip stream carries a leftover value.
  EXPECT_THROW((void)drive(kernel, {{main, {1}}, {skip, {1, 2}}}, {&out}),
               Error);
}

TEST(OutStageTest, FansOutWithPerRingProgressAndStallEpisodes) {
  Stream a(8, 4, "a");
  Stream b(8, 4, "b");
  Stream c(4, 4, "c");
  const std::vector<std::int32_t> filler{9, 9, 9, 9};
  ASSERT_EQ(c.try_push_burst(filler), 4u);  // c is held full
  OutStage port({&a, &b, &c});
  const std::vector<std::int32_t> first{1, 2, 3, 4, 5};
  std::ranges::copy(first, port.extend(first.size()).begin());

  // The full ring holds back only itself: the others take every value.
  EXPECT_FALSE(port.flush());
  EXPECT_FALSE(port.flush());  // still the same blocked period
  EXPECT_EQ(pop_all(a), first);
  EXPECT_EQ(pop_all(b), first);
  EXPECT_FALSE(port.flush());
  EXPECT_EQ(c.push_stalls(), 1u);

  // Drained part way, c catches up part way: the period goes on.
  std::int32_t two[2];
  ASSERT_EQ(c.try_pop_burst(two), 2u);
  EXPECT_FALSE(port.flush());
  EXPECT_EQ(c.push_stalls(), 1u);
  EXPECT_EQ(pop_all(c), (std::vector<std::int32_t>{9, 9, 1, 2}));
  EXPECT_TRUE(port.flush());
  EXPECT_EQ(pop_all(c), (std::vector<std::int32_t>{3, 4, 5}));
  EXPECT_EQ(a.pushed(), first.size());  // nothing pushed twice
  EXPECT_EQ(b.pushed(), first.size());

  // A second blocked period is a second episode, on that ring alone.
  ASSERT_EQ(c.try_push_burst(filler), 4u);
  port.extend(1).front() = 6;
  EXPECT_FALSE(port.flush());
  EXPECT_EQ(c.push_stalls(), 2u);
  EXPECT_EQ(a.push_stalls(), 0u);
  EXPECT_EQ(b.push_stalls(), 0u);
  EXPECT_EQ(pop_all(a), std::vector<std::int32_t>{6});
  EXPECT_EQ(pop_all(b), std::vector<std::int32_t>{6});
  (void)pop_all(c);
  EXPECT_TRUE(port.flush());
  EXPECT_EQ(pop_all(c), std::vector<std::int32_t>{6});

  port.close();
  EXPECT_TRUE(a.closed());
  EXPECT_TRUE(b.closed());
  EXPECT_TRUE(c.closed());

  // A port writes at least one ring.
  EXPECT_THROW(OutStage({}), Error);
}

TEST(OutStageTest, SharedBnActRingsTakeOneEvaluationPerValue) {
  // One raw ring (a sibling consumer of the sums, like an Add's skip
  // port) and two rings carrying the same BnAct's codes, one held full.
  // 3 channels through 5-value flushes: the channel phase advances once
  // per value only if the BnAct is mapped once per flush — not once per
  // ring, nor once per retry of a blocked flush — so every code below
  // being right is that count.
  const Node n = bnact_node(10, 3, 8, 2);
  BnLayerParams bn(3);
  bn.at(1).gamma = -1.0f;
  bn.at(2).beta = 1.0f;
  const ActQuantizer q(2, 2.0);
  const ThresholdLayer layer = ThresholdLayer::fold(bn, q);

  Stream raw(8, 8, "raw");
  Stream a(8, 2, "a");
  Stream b(4, 2, "b");
  const std::vector<std::int32_t> filler{9, 9, 9, 9};
  ASSERT_EQ(b.try_push_burst(filler), 4u);  // b is held full
  OutStage port(PortRings({&raw}, {PortAct{&n, &layer, -1, {&a, &b}}}));

  std::vector<std::int32_t> sums;
  std::vector<std::int32_t> codes;
  for (int i = 0; i < 10; ++i) {
    const std::int32_t v = 3 * i - 12;
    sums.push_back(v);
    codes.push_back(layer.at(i % 3).eval_binary_search(v));
  }
  std::vector<std::int32_t> got_raw;
  std::vector<std::int32_t> got_a;
  std::vector<std::int32_t> got_b;
  const auto drain = [](Stream& s, std::vector<std::int32_t>& into) {
    const auto v = pop_all(s);
    into.insert(into.end(), v.begin(), v.end());
  };
  for (std::size_t at = 0; at < sums.size(); at += 5) {
    const auto flush = std::span<const std::int32_t>(sums).subspan(at, 5);
    // The full ring holds back only itself, over several retries.
    EXPECT_FALSE(port.flush(flush));
    EXPECT_FALSE(port.flush(flush));
    drain(raw, got_raw);
    drain(a, got_a);
    std::int32_t two[2];
    ASSERT_EQ(b.try_pop_burst(two), 2u);  // room for part of the flush
    EXPECT_FALSE(port.flush(flush));
    const auto rest = pop_all(b);  // two fillers, then two codes
    ASSERT_EQ(rest.size(), 4u);
    got_b.insert(got_b.end(), rest.begin() + 2, rest.end());
    EXPECT_TRUE(port.flush(flush));
    drain(b, got_b);
    ASSERT_EQ(b.try_push_burst(filler), 4u);  // full again
  }
  EXPECT_EQ(got_raw, sums);
  EXPECT_EQ(got_a, codes);
  EXPECT_EQ(got_b, codes);
  EXPECT_EQ(raw.push_stalls(), 0u);
  EXPECT_EQ(a.push_stalls(), 0u);
  EXPECT_EQ(b.push_stalls(), 2u);  // one episode per blocked flush
}

TEST(ConvKernelTest, RejectsMismatchedWeightBank) {
  const Node n = conv_node(Shape{4, 4, 2}, 3, 3, 1, 1, 2);
  Rng rng(8);
  const FilterBank wrong = FilterBank::random(FilterShape{3, 3, 4}, rng);
  Stream sin(8, 2, "in");
  Stream sout(8, 8, "out");
  EXPECT_THROW(ConvKernel(n, wrong, sin, {&sout}), Error);
}

}  // namespace
}  // namespace qnn
