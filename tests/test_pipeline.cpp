#include "nn/pipeline.h"

#include <gtest/gtest.h>

#include <string>

#include "models/zoo.h"

namespace qnn {
namespace {

TEST(PreactBits, Widths) {
  // 1-bit codes over a 9-value window: |sum| <= 9 -> 5 signed bits.
  EXPECT_EQ(preact_bits(9, 1), 5);
  // ResNet body conv: 3*3*512 window of 2-bit codes, |sum| <= 13824.
  EXPECT_EQ(preact_bits(3 * 3 * 512, 2), 15);
  // First layer: 7*7*3 window of 8-bit pixels, |sum| <= 37485 -> 17 bits.
  EXPECT_EQ(preact_bits(7 * 7 * 3, 8), 17);
}

TEST(Pipeline, SimpleChainShapes) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 3};
  spec.conv(4, 3, 1, 1).max_pool(2, 2).dense(10, false);
  const Pipeline p = expand(spec);
  ASSERT_EQ(p.size(), 4);  // conv, bnact, pool, dense-conv
  EXPECT_EQ(p.node(0).kind, NodeKind::Conv);
  EXPECT_EQ(p.node(0).out, (Shape{8, 8, 4}));
  EXPECT_EQ(p.node(1).kind, NodeKind::BnAct);
  EXPECT_EQ(p.node(1).out_bits, 2);
  EXPECT_EQ(p.node(2).kind, NodeKind::MaxPool);
  EXPECT_EQ(p.node(2).out, (Shape{4, 4, 4}));
  EXPECT_EQ(p.node(3).kind, NodeKind::Conv);
  EXPECT_EQ(p.node(3).k, 4);  // dense lowered to full-spatial conv
  EXPECT_EQ(p.node(3).out, (Shape{1, 1, 10}));
  EXPECT_EQ(p.num_conv_params, 2);
  EXPECT_EQ(p.num_bnact_params, 1);
}

TEST(Pipeline, ResidualIdentityBlock) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 4};
  spec.input_bits = 2;
  spec.conv(4, 3, 1, 1);        // conv + bnact -> codes, 4 channels
  spec.residual(4, 1);          // identity skip
  const Pipeline p = expand(spec);
  // conv, bnact, convA, bnact, convB, add
  ASSERT_EQ(p.size(), 6);
  const Node& add = p.node(5);
  EXPECT_EQ(add.kind, NodeKind::Add);
  EXPECT_EQ(add.main_from, 4);
  EXPECT_EQ(add.skip_from, 1);  // taps the codes entering the block
  EXPECT_EQ(add.out, (Shape{8, 8, 4}));
}

TEST(Pipeline, ResidualDownsampleUsesProjection) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 4};
  spec.conv(4, 3, 1, 1);
  spec.residual(8, 2);  // downsampling block
  const Pipeline p = expand(spec);
  // conv, bnact, proj-conv, convA, bnact, convB, add
  ASSERT_EQ(p.size(), 7);
  const Node& proj = p.node(2);
  EXPECT_EQ(proj.kind, NodeKind::Conv);
  EXPECT_EQ(proj.k, 1);
  EXPECT_EQ(proj.stride, 2);
  EXPECT_EQ(proj.out, (Shape{4, 4, 8}));
  const Node& add = p.node(6);
  EXPECT_EQ(add.skip_from, 2);
  EXPECT_EQ(add.out, (Shape{4, 4, 8}));
}

TEST(Pipeline, ConsecutiveResidualsTapPreactivation) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 4};
  spec.conv(4, 3, 1, 1);
  spec.residual(4, 1).residual(4, 1);
  const Pipeline p = expand(spec);
  // conv bnact | convA bnact convB add | bnact convA bnact convB add
  ASSERT_EQ(p.size(), 11);
  const Node& add1 = p.node(5);
  const Node& add2 = p.node(10);
  ASSERT_EQ(add1.kind, NodeKind::Add);
  ASSERT_EQ(add2.kind, NodeKind::Add);
  // Second block's skip taps the first Add's 16-bit output, not the codes:
  // "skip connections ... accumulate non-quantized outputs" (§III-B5).
  EXPECT_EQ(add2.skip_from, 5);
  EXPECT_GT(add2.out_bits, add1.out_bits);
}

TEST(Pipeline, CarryIsQuantizedBeforePooling) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 4};
  spec.conv(4, 3, 1, 1);
  spec.residual(4, 1);
  spec.avg_pool_global();
  spec.dense(3, false);
  const Pipeline p = expand(spec);
  // ... add, bnact, avgpool, dense-conv
  const Node& last_add = p.node(5);
  EXPECT_EQ(last_add.kind, NodeKind::Add);
  EXPECT_EQ(p.node(6).kind, NodeKind::BnAct);
  EXPECT_EQ(p.node(7).kind, NodeKind::AvgPool);
  EXPECT_EQ(p.node(7).out, (Shape{1, 1, 4}));
  EXPECT_EQ(p.node(8).out, (Shape{1, 1, 3}));
}

TEST(Pipeline, AvgPoolWidthGrowsWithWindow) {
  NetworkSpec spec;
  spec.input = Shape{7, 7, 4};
  spec.input_bits = 2;
  spec.avg_pool_global();
  const Pipeline p = expand(spec);
  // Sum of 49 2-bit codes: max 147 -> 8 unsigned bits.
  EXPECT_EQ(p.node(0).out_bits, 8);
}

TEST(Pipeline, ConvInputWiderThanTheDatapathNamesItsSource) {
  // tiny's dense head reads the global average pool's window sum of 2-bit
  // codes: at 588 px the pooled map is 147x147, a sum of at most
  // 147*147*3 = 64827 (16 bits); at 592 px it is 148x148 and 65712 needs
  // 17, past the conv datapath's 16.
  const Pipeline ok = expand(models::tiny(588, 4, 2));
  const Node& head = ok.node(ok.size() - 1);
  ASSERT_EQ(head.kind, NodeKind::Conv);
  ASSERT_EQ(head.in_bits, kMaxConvInputBits);
  const Node& pool = ok.node(head.main_from);
  ASSERT_EQ(pool.kind, NodeKind::AvgPool);
  try {
    (void)expand(models::tiny(592, 4, 2));
    FAIL() << "a 17-bit conv input must be refused";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(head.name + ": input is 17 bits wide"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("16-bit conv datapath limit"), std::string::npos)
        << what;
    EXPECT_NE(what.find("comes from " + pool.name), std::string::npos)
        << what;
  }
}

TEST(Pipeline, ValidateCatchesBrokenEdges) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 3};
  spec.conv(4, 3, 1, 1);
  Pipeline p = expand(spec);
  p.nodes[1].main_from = 5;  // forward reference
  EXPECT_THROW(p.validate(), Error);
}

TEST(Pipeline, ConsumersListsMainAndSkipEdges) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  bool found_fanout = false;
  for (int i = 0; i < p.size(); ++i) {
    if (p.consumers(i).size() > 1) found_fanout = true;
  }
  EXPECT_TRUE(found_fanout) << "tiny model must contain a skip fan-out";
}

TEST(Pipeline, TotalWeightBits) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 3};
  spec.conv(4, 3, 1, 1).dense(10, false);
  const Pipeline p = expand(spec);
  EXPECT_EQ(p.total_weight_bits(), 3 * 3 * 3 * 4 + 8 * 8 * 4 * 10);
}

}  // namespace
}  // namespace qnn
