#include "dataflow/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "dataflow/linked_engine.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "plan/compiled_plan.h"
#include "test_util.h"
#include "verify/token_flow.h"

namespace qnn {
namespace {

/// The central correctness claim: the streaming engine is bit-exact
/// against the golden layer-by-layer reference executor — at every
/// worker count and burst size.
void expect_engine_matches_reference(const NetworkSpec& spec,
                                     std::uint64_t seed, int images,
                                     EngineOptions opt = {}) {
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, seed);
  const ReferenceExecutor ref(p, params);
  StreamEngine engine(p, params, opt);
  Rng rng(seed ^ 0xabcdef);
  std::vector<IntTensor> batch;
  batch.reserve(static_cast<std::size_t>(images));
  for (int i = 0; i < images; ++i) {
    batch.push_back(
        testutil::random_codes(spec.input, spec.input_bits, rng));
  }
  const auto outs = engine.run(batch);
  ASSERT_EQ(outs.size(), batch.size());
  for (int i = 0; i < images; ++i) {
    EXPECT_EQ(outs[static_cast<std::size_t>(i)],
              ref.run(batch[static_cast<std::size_t>(i)]))
        << spec.name << " image " << i;
  }
}

TEST(Engine, SingleConvMatchesReference) {
  NetworkSpec spec;
  spec.name = "conv_only";
  spec.input = Shape{6, 6, 3};
  spec.conv(4, 3, 1, 1, false);
  expect_engine_matches_reference(spec, 11, 3);
}

TEST(Engine, ConvBnActPoolChain) {
  NetworkSpec spec;
  spec.name = "chain";
  spec.input = Shape{8, 8, 3};
  spec.conv(8, 3, 1, 1).max_pool(2, 2).conv(4, 3, 1, 0).dense(5, false);
  expect_engine_matches_reference(spec, 12, 3);
}

TEST(Engine, StridedAndUnpaddedConvs) {
  NetworkSpec spec;
  spec.name = "strided";
  spec.input = Shape{11, 11, 2};
  spec.conv(6, 5, 2, 0).conv(4, 3, 1, 1).dense(3, false);
  expect_engine_matches_reference(spec, 13, 2);
}

TEST(Engine, ResidualIdentity) {
  NetworkSpec spec;
  spec.name = "res_id";
  spec.input = Shape{8, 8, 3};
  spec.conv(4, 3, 1, 1);
  spec.residual(4, 1);
  spec.avg_pool_global();
  spec.dense(3, false);
  expect_engine_matches_reference(spec, 14, 3);
}

TEST(Engine, ResidualDownsampleProjection) {
  NetworkSpec spec;
  spec.name = "res_down";
  spec.input = Shape{12, 12, 3};
  spec.conv(4, 3, 1, 1);
  spec.residual(8, 2);
  spec.residual(8, 1);
  spec.avg_pool_global();
  spec.dense(4, false);
  expect_engine_matches_reference(spec, 15, 2);
}

TEST(Engine, TinyModelEndToEnd) {
  expect_engine_matches_reference(models::tiny(12, 4, 2), 16, 4);
}

TEST(Engine, TinyModelOneBitActivations) {
  expect_engine_matches_reference(models::tiny(12, 4, 1), 17, 2);
}

TEST(Engine, TinyModelThreeBitActivations) {
  expect_engine_matches_reference(models::tiny(12, 4, 3), 18, 2);
}

TEST(Engine, VggLike16MatchesReference) {
  expect_engine_matches_reference(models::vgg_like(16, 10, 2), 19, 2);
}

TEST(Engine, RunOneReturnsSameAsBatch) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 20);
  StreamEngine engine(p, params);
  Rng rng(21);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  const IntTensor a = engine.run_one(img);
  const IntTensor b = engine.run_one(img);  // engine is reusable
  EXPECT_EQ(a, b);
}

TEST(Engine, StreamTrafficAccountsEveryEdge) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 22);
  StreamEngine engine(p, params);
  Rng rng(23);
  (void)engine.run_one(testutil::random_image(12, 12, 3, rng));
  std::uint64_t total = 0;
  for (const auto& [name, pushed] : engine.stream_traffic()) {
    total += pushed;
  }
  // At minimum the input and output streams carried a full map each.
  EXPECT_GT(total, static_cast<std::uint64_t>(p.input.elems()));
}

TEST(Engine, RunStatsReportWallClockThroughput) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 26);
  StreamEngine engine(p, params);
  Rng rng(27);
  std::vector<IntTensor> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(testutil::random_image(12, 12, 3, rng));
  }
  StreamEngine::RunStats stats;
  const auto out = engine.run(batch, &stats);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.images_per_second, 0.0);
  EXPECT_NEAR(stats.images_per_second * stats.wall_seconds, 4.0, 1e-6);
  // values_streamed mirrors the sum over stream_traffic() so the serving
  // metrics can report pipeline utilization without re-walking streams.
  std::uint64_t traffic = 0;
  for (const auto& [name, pushed] : engine.stream_traffic()) {
    traffic += pushed;
  }
  EXPECT_EQ(stats.values_streamed, traffic);
  EXPECT_GT(stats.values_streamed,
            static_cast<std::uint64_t>(4 * p.input.elems()));
}

TEST(Engine, FinnCnvUnpaddedTopologyMatchesReference) {
  expect_engine_matches_reference(models::finn_cnv(10, 2), 28, 1);
}

TEST(Engine, RejectsWrongImageShape) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 24);
  StreamEngine engine(p, params);
  EXPECT_THROW((void)engine.run_one(IntTensor(Shape{8, 8, 3})), Error);
}

TEST(Engine, AcceptsExactlyTheImageCodesItsInputCarries) {
  // conv_0 reads 8-bit codes: [0, 255] runs bit-exact, a value on either
  // side of it is rejected (a conv line buffer would keep only its low
  // bits and silently diverge from the reference).
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  ASSERT_EQ(p.input_bits, 8);
  const NetworkParams params = NetworkParams::random(p, 25);
  const ReferenceExecutor ref(p, params);
  StreamEngine engine(p, params);
  IntTensor img(p.input);
  img[0] = 255;
  img[1] = 0;
  EXPECT_EQ(engine.run_one(img), ref.run(img));
  for (const std::int32_t bad : {256, -1}) {
    IntTensor off = img;
    off[5] = bad;
    EXPECT_THROW((void)engine.run_one(off), Error) << bad;
  }
  EXPECT_EQ(engine.run_one(img), ref.run(img));  // still usable
}

TEST(Engine, AcceptsExactlyTheSignedValuesASegmentInputHolds) {
  // A segment that starts with a BnAct reads conv_0's signed sums, whose
  // width includes the sign: it runs every value its input ring holds,
  // [-2^bits, 2^bits), and rejects the first value past either end.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 26);
  const PipelineSegment seg = extract_segment(p, params, 1, 2);
  const int bits = seg.pipeline.input_bits;
  ASSERT_LT(bits, 31);
  const std::int32_t room = std::int32_t{1} << bits;
  const ReferenceExecutor ref(seg.pipeline, seg.params);
  StreamEngine engine(seg.pipeline, seg.params);
  IntTensor img(seg.pipeline.input);
  img[0] = room - 1;
  img[1] = -room;
  EXPECT_EQ(engine.run_one(img), ref.run(img));
  for (const std::int32_t bad : {room, -room - 1}) {
    IntTensor off = img;
    off[3] = bad;
    EXPECT_THROW((void)engine.run_one(off), Error) << bad;
  }
}

TEST(Engine, RejectsConvInputsAbove16BitsWithVerifyOff) {
  // With verification off no D105 gate runs; the conv's byte line buffer
  // (two 8-bit planes at most) still refuses a 20-bit input at
  // construction instead of truncating it.
  NetworkSpec spec;
  spec.name = "wide_conv";
  spec.input = Shape{6, 6, 3};
  spec.conv(4, 3, 1, 1, false);
  Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 27);
  ASSERT_EQ(p.node(0).kind, NodeKind::Conv);
  p.input_bits = 20;
  p.nodes[0].in_bits = 20;
  EngineOptions unverified;
  unverified.verify = false;
  try {
    StreamEngine engine(p, params, unverified);
    FAIL() << "a 20-bit conv input must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte line buffer"),
              std::string::npos)
        << e.what();
  }
}

// Every zoo-style topology must be bit-exact on a single worker and on the
// full pool, at both ends of the burst spectrum (1 = scalar transport).
TEST(EngineExecutors, BitExactAcrossExecutorAndBurstMatrix) {
  NetworkSpec res;
  res.name = "res_matrix";
  res.input = Shape{12, 12, 3};
  res.conv(4, 3, 1, 1);
  res.residual(8, 2);
  res.residual(8, 1);
  res.avg_pool_global();
  res.dense(4, false);

  const NetworkSpec specs[] = {models::tiny(12, 4, 2), res,
                               models::vgg_like(16, 10, 2),
                               models::finn_cnv(10, 2)};
  std::uint64_t seed = 31;
  for (const NetworkSpec& spec : specs) {
    for (const unsigned workers : {1u, 0u}) {
      for (const std::size_t burst : {std::size_t{1}, std::size_t{256}}) {
        EngineOptions opt;
        opt.pool_threads = workers;
        opt.burst = burst;
        SCOPED_TRACE(spec.name + " burst=" + std::to_string(burst) +
                     " workers=" + std::to_string(workers));
        expect_engine_matches_reference(spec, seed++, 2, opt);
      }
    }
  }
}

// Adaptive per-edge burst sizing is a transport decision, never a
// numerical one: the same zoo topologies must produce identical outputs
// with row-sized per-edge bursts and with uniform scalar transport
// (burst = 1, adaptive off), on a single worker and on the full pool.
TEST(EngineExecutors, AdaptiveBurstsBitExactWithScalarTransport) {
  NetworkSpec res;
  res.name = "res_adaptive";
  res.input = Shape{12, 12, 3};
  res.conv(4, 3, 1, 1);
  res.residual(8, 2);
  res.residual(8, 1);
  res.avg_pool_global();
  res.dense(4, false);

  const NetworkSpec specs[] = {models::tiny(12, 4, 2), res,
                               models::vgg_like(16, 10, 2),
                               models::finn_cnv(10, 2)};
  std::uint64_t seed = 71;
  for (const NetworkSpec& spec : specs) {
    const Pipeline p = expand(spec);
    const NetworkParams params = NetworkParams::random(p, seed);
    Rng rng(seed ^ 0xfeed);
    ++seed;
    std::vector<IntTensor> batch;
    for (int i = 0; i < 2; ++i) {
      batch.push_back(
          testutil::random_codes(spec.input, spec.input_bits, rng));
    }

    EngineOptions adaptive;  // defaults: adaptive per-edge bursts
    StreamEngine baseline(p, params, adaptive);
    const auto want = baseline.run(batch);

    for (const unsigned workers : {1u, 0u}) {
      EngineOptions scalar;
      scalar.pool_threads = workers;
      scalar.burst = 1;
      scalar.adaptive_burst = false;
      StreamEngine engine(p, params, scalar);
      const auto got = engine.run(batch);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << spec.name << " image " << i << " workers=" << workers;
      }
    }
  }
}

/// Hang the first node kernel at its 16th step of the engine's second run
/// (run 1, after one warm-up run), so that run cannot end before a cancel()
/// lands: it can only end by throwing. 64 images give that kernel far more
/// than 16 steps.
FaultPlan hang_second_run() {
  FaultEvent hang = FaultPlan::kernel_hang("", /*run=*/1, /*step=*/16);
  hang.target_index = 0;
  FaultPlan plan;
  plan.add(hang);
  return plan;
}

// Regression for the reset-poisoning bug: a run that aborts (here via
// cancel(), which makes the feeder-side task throw) must leave the engine
// fully reusable — the next run starts from pristine streams and kernels
// and stays bit-exact, on a single worker and on the full pool. A hang
// armed for the cancelled run keeps it open until the cancel lands, on a
// loaded host too.
TEST(EngineRecovery, RecoversAfterCancelledRunInEveryMode) {
  for (const unsigned workers : {1u, 0u}) {
    EngineOptions opt;
    opt.pool_threads = workers;
    opt.faults = hang_second_run();
    const Pipeline p = expand(models::tiny(12, 4, 2));
    const NetworkParams params = NetworkParams::random(p, 29);
    StreamEngine engine(p, params, opt);
    Rng rng(30);
    const IntTensor img = testutil::random_image(12, 12, 3, rng);
    const IntTensor good = engine.run_one(img);  // run 0

    std::vector<IntTensor> batch;
    for (int i = 0; i < 64; ++i) batch.push_back(img);
    std::atomic<bool> stop{false};
    std::thread canceller([&] {
      while (!stop.load()) {
        engine.cancel();
        std::this_thread::yield();
      }
    });
    EXPECT_THROW((void)engine.run(batch), Error);  // run 1
    stop.store(true);
    canceller.join();

    EXPECT_EQ(engine.run_one(img), good) << "workers=" << workers;
  }
}

// Satellite regression for stale stats across re-arm: RunStats of a rerun
// after cancel() must match a clean run exactly — Stream::reset() clears
// the pushed/transactions/stall counters along with the ring, so an
// aborted run's traffic never inflates the next run's numbers.
TEST(EngineRecovery, RunStatsPristineAfterCancelledRun) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 33);
  Rng rng(34);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);

  // Clean engine: the expected per-run traffic.
  StreamEngine clean(p, params);
  StreamEngine::RunStats want;
  (void)clean.run(std::span<const IntTensor>(&img, 1), &want);

  // The cancelled batch is this engine's run 1: a hang keeps it open
  // until the cancel lands.
  EngineOptions opt;
  opt.faults = hang_second_run();
  StreamEngine engine(p, params, opt);
  (void)engine.run(std::span<const IntTensor>(&img, 1));  // run 0
  std::vector<IntTensor> batch;
  for (int i = 0; i < 64; ++i) batch.push_back(img);
  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    while (!stop.load()) {
      engine.cancel();
      std::this_thread::yield();
    }
  });
  EXPECT_THROW((void)engine.run(batch), Error);
  stop.store(true);
  canceller.join();

  StreamEngine::RunStats got;
  const auto outs = engine.run(std::span<const IntTensor>(&img, 1), &got);
  ASSERT_EQ(outs.size(), 1u);
  // Deterministic counters must match a clean run exactly; the stall
  // counts are scheduling-dependent and only checked for sanity.
  EXPECT_EQ(got.values_streamed, want.values_streamed);
  EXPECT_EQ(got.faults_injected, 0u);
  EXPECT_GT(got.stream_transactions, 0u);
  EXPECT_LE(got.stream_transactions, got.values_streamed);
}

// Satellite regression: cancel() landing while ready-queue workers are
// PARKED. With pool_threads far above this machine's core count most
// workers sit on the parking lot with ReadyHook bindings armed on the
// streams their tasks last blocked on; only RUNNING tasks poll the abort
// flag, so cancellation correctness rests on the executor's quiescence
// path waking every parker. The staggered delays land the cancel in
// different protocol states (feeder active, pipe draining, workers mostly
// parked); whichever state it hits, the run must either complete or throw
// — never hang — and the engine must re-arm bit-exactly.
TEST(EngineRecovery, CancelWakesParkedReadyQueueWorkers) {
  EngineOptions opt;
  opt.pool_threads = 8;  // >> cores in CI: parking is guaranteed
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 41);
  StreamEngine engine(p, params, opt);
  Rng rng(42);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  const IntTensor good = engine.run_one(img);

  const std::vector<IntTensor> batch(16, img);
  for (const int delay_us : {0, 50, 200, 800}) {
    std::thread canceller([&engine, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      engine.cancel();
    });
    // A late cancel may miss the run entirely (it completes first); the
    // next run() clears the stale flag on entry. Both outcomes are legal —
    // the assertion is the rerun below.
    try {
      (void)engine.run(batch);
    } catch (const Error&) {
    }
    canceller.join();
    EXPECT_EQ(engine.run_one(img), good) << "delay " << delay_us << "us";
  }
}

TEST(Engine, KernelAndStreamCountsMatchTopology) {
  for (const NetworkSpec& spec :
       {models::tiny(12, 4, 2), models::resnet18(32, 10, 2)}) {
    const Pipeline p = expand(spec);
    const NetworkParams params = NetworkParams::random(p, 25);
    StreamEngine engine(p, params);
    // One kernel per node that is not a BnAct, one ring per input port of
    // each: a BnAct is evaluated by the port that writes its input, and a
    // fan-out point adds neither a task nor a ring.
    int bnacts = 0;
    int rings = 1;  // the terminal output stream
    for (int i = 0; i < p.size(); ++i) {
      const Node& n = p.node(i);
      if (n.kind == NodeKind::BnAct) {
        ++bnacts;
      } else {
        rings += n.skip_from >= 0 ? 2 : 1;  // one per input port
      }
    }
    if (spec.name == "tiny_12") {
      EXPECT_EQ(bnacts, 5);
      EXPECT_EQ(engine.kernel_count(), 11);
      EXPECT_EQ(engine.stream_count(), 14);
    }
    EXPECT_EQ(engine.kernel_count(), p.size() - bnacts) << spec.name;
    EXPECT_EQ(engine.stream_count(), rings) << spec.name;
  }
}

// ------------------------------------------------- BnAct on the port

/// Bit-exactness of the engine in which no BnAct of `spec` is a task,
/// plus the task count that proves none is.
void expect_fused_engine_matches_reference(const NetworkSpec& spec,
                                           std::uint64_t seed, int images) {
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, seed);
  const auto bnacts = std::count_if(
      p.nodes.begin(), p.nodes.end(),
      [](const Node& n) { return n.kind == NodeKind::BnAct; });
  ASSERT_GT(bnacts, 0) << spec.name;
  StreamEngine engine(p, params);
  EXPECT_EQ(engine.kernel_count(), p.size() - bnacts) << spec.name;
  const ReferenceExecutor ref(p, params);
  Rng rng(seed ^ 0xf05edu);
  std::vector<IntTensor> batch;
  for (int i = 0; i < images; ++i) {
    batch.push_back(testutil::random_codes(spec.input, spec.input_bits, rng));
  }
  const auto outs = engine.run(batch);
  ASSERT_EQ(outs.size(), batch.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i], ref.run(batch[i])) << spec.name << " image " << i;
  }
}

TEST(FusedConv, TinyMatchesReference) {
  expect_fused_engine_matches_reference(models::tiny(12, 4, 2), 61, 3);
}

TEST(FusedConv, VggLike32MatchesReference) {
  expect_fused_engine_matches_reference(models::vgg_like(32, 10, 2), 62, 2);
}

TEST(FusedConv, ResNet18MatchesReference) {
  expect_fused_engine_matches_reference(models::resnet18(32, 10, 2), 63, 1);
}

TEST(FusedConv, ResNet34MatchesReference) {
  expect_fused_engine_matches_reference(models::resnet34(32, 10, 2), 64, 1);
}

TEST(FusedConv, AlexNetMatchesReference) {
  expect_fused_engine_matches_reference(models::alexnet(63, 10, 2), 65, 1);
}

TEST(FusedConv, FinnCnvMatchesReference) {
  expect_fused_engine_matches_reference(models::finn_cnv(10, 2), 66, 2);
}

/// The routed plan's stream named `name`, or nullptr.
const PlannedStream* stream_named(const FifoPlan& plan,
                                  const std::string& name) {
  const auto it =
      std::find_if(plan.streams.begin(), plan.streams.end(),
                   [&](const PlannedStream& s) { return s.name == name; });
  return it == plan.streams.end() ? nullptr : &*it;
}

TEST(FusedConv, ForkingConvThresholdsOnlyItsBnActRing) {
  // conv_0 feeds both bnact_1 and, as a skip, the Add after it: its port
  // writes the raw sums into the Add's skip ring and bnact_1's codes into
  // the Add's main ring — one task, no ring into the BnAct.
  NetworkSpec spec;
  spec.name = "conv_fork";
  spec.input = Shape{8, 8, 3};
  spec.conv(4, 3, 1, 1);
  Pipeline p = expand(spec);
  ASSERT_EQ(p.size(), 2);
  Node add;
  add.kind = NodeKind::Add;
  add.name = "add_2";
  add.main_from = 1;
  add.skip_from = 0;
  add.in = add.out = p.node(1).out;
  add.in_bits = p.node(1).out_bits;
  add.out_bits = std::max(add.in_bits, p.node(0).out_bits) + 1;
  p.nodes.push_back(add);
  const FifoPlan plan = plan_fifos(p);
  EXPECT_EQ(plan.find_edge(1, false), nullptr);
  ASSERT_NE(stream_named(plan, "conv_0=>add_2"), nullptr);
  ASSERT_NE(stream_named(plan, "bnact_1->add_2"), nullptr);
  EXPECT_EQ(plan.streams.size(), 4u);  // + input->conv_0, add_2->output
  const NetworkParams params = NetworkParams::random(p, 67);
  StreamEngine engine(p, params);
  EXPECT_EQ(engine.kernel_count(), p.size() - 1);  // conv_0 and add_2
  const ReferenceExecutor ref(p, params);
  Rng rng(68);
  for (int i = 0; i < 3; ++i) {
    const IntTensor img = testutil::random_codes(spec.input, 8, rng);
    EXPECT_EQ(engine.run_one(img), ref.run(img)) << "image " << i;
  }
}

TEST(FusedConv, BnActFedByABnActMapsTheCodesOnTheSamePort) {
  // A hand-built conv -> bnact -> bnact chain (the spec expander never
  // emits one): conv_0's port maps its sums through bnact_1 and those
  // codes through bnact_2 — one task, one ring, both BnActs evaluated
  // once per value.
  NetworkSpec spec;
  spec.name = "bnact_chain";
  spec.input = Shape{6, 6, 3};
  spec.conv(4, 3, 1, 1);
  Pipeline p = expand(spec);
  ASSERT_EQ(p.size(), 2);
  Node second = p.node(1);
  second.name = "bnact_2";
  second.main_from = 1;
  second.in_bits = p.node(1).out_bits;
  second.param = p.num_bnact_params++;
  p.nodes.push_back(second);
  const NetworkParams params = NetworkParams::random(p, 78);
  const FifoPlan plan = plan_fifos(p);
  ASSERT_EQ(plan.streams.size(), 2u);  // input->conv_0, bnact_2->output
  EXPECT_EQ(ring_writer(p, plan, plan.streams[1]).bnacts,
            (std::vector<int>{1, 2}));
  StreamEngine engine(p, params);
  EXPECT_EQ(engine.kernel_count(), 1);
  const ReferenceExecutor ref(p, params);
  Rng rng(79);
  for (int i = 0; i < 3; ++i) {
    const IntTensor img = testutil::random_codes(spec.input, 8, rng);
    EXPECT_EQ(engine.run_one(img), ref.run(img)) << "image " << i;
  }
}

TEST(FusedConv, BnActAfterAddRidesOnTheAddersPort) {
  // tiny's add_6 -> bnact_7: the adder's port writes bnact_7's codes into
  // bnact_7's rings, so neither a BnAct task nor a ring into it is left.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  ASSERT_EQ(p.node(7).kind, NodeKind::BnAct);
  ASSERT_EQ(p.node(p.node(7).main_from).kind, NodeKind::Add);
  const FifoPlan plan = plan_fifos(p);
  EXPECT_EQ(plan.find_edge(7, false), nullptr);
  EXPECT_EQ(stream_named(plan, "add_6->bnact_7"), nullptr);
  const PlannedStream* codes = stream_named(plan, "bnact_7=>conv_8");
  ASSERT_NE(codes, nullptr);
  const RingWriter w = ring_writer(p, plan, *codes);
  EXPECT_EQ(w.node, 6);
  EXPECT_EQ(w.link, -1);
  EXPECT_EQ(w.bnacts, std::vector<int>{7});
  // No ring goes into any BnAct.
  for (const PlannedStream& s : plan.streams) {
    if (s.consumer >= 0) {
      EXPECT_NE(p.node(s.consumer).kind, NodeKind::BnAct) << s.name;
    }
  }
  expect_fused_engine_matches_reference(models::tiny(12, 4, 2), 69, 2);
}

TEST(FusedConv, LinkCutBetweenConvAndBnActSplitsThePair) {
  // A cut after conv_0 carries its int32 sums over the link; the pump's
  // port writes bnact_1's codes into bnact_1's ring, which becomes the
  // link's ingress ring with the capacity and burst it has unrouted. The
  // chain stays bit-exact — with the plan derived on the spot and with a
  // compiled plan armed.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 70);

  LinkCut cut;
  cut.after_node = 0;
  cut.frame_values = 64;
  cut.config.name = "link0";
  const FifoPlan routed =
      engine_fifos(p, {}, std::span<const LinkCut>(&cut, 1));
  const PlannedStream* egress = stream_named(routed, "conv_0->link0");
  ASSERT_NE(egress, nullptr);
  EXPECT_EQ(egress->role, PlannedStream::Role::kLinkOut);
  EXPECT_EQ(egress->bits, p.node(0).out_bits);  // raw sums on the wire
  const PlannedStream* ingress = stream_named(routed, "link0->maxpool_2");
  ASSERT_NE(ingress, nullptr);
  EXPECT_EQ(ingress->role, PlannedStream::Role::kLinkIn);
  EXPECT_EQ(ingress->producer, 1);
  const FifoPlan unrouted = plan_fifos(p);
  EXPECT_EQ(routed.streams.size(), unrouted.streams.size() + 1);
  EXPECT_EQ(routed.find_edge(2, false), nullptr);
  const PlannedStream* want = unrouted.find_edge(2, false);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(ingress->capacity, want->capacity);
  EXPECT_EQ(ingress->burst, want->burst);
  EXPECT_GE(egress->capacity, want->capacity);
  const RingWriter w = ring_writer(p, routed, *ingress);
  EXPECT_EQ(w.node, 0);
  EXPECT_EQ(w.link, 0);
  EXPECT_EQ(w.bnacts, std::vector<int>{1});
  EXPECT_EQ(ring_writer(p, routed, *egress).link, -1);
  EXPECT_EQ(prove_token_flow(p, routed).verdict, TokenVerdict::kFeasible);

  const ReferenceExecutor ref(p, params);
  Rng rng(71);
  std::vector<IntTensor> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(testutil::random_image(12, 12, 3, rng));
  }
  const CompiledPlan compiled = compile_plan(p);
  for (const CompiledPlan* plan : {static_cast<const CompiledPlan*>(nullptr),
                                   &compiled}) {
    LinkedEngineOptions opts;
    opts.cut_after_nodes = {0};
    opts.engine.plan = plan;
    LinkedEngine engine(p, params, opts);
    ASSERT_EQ(engine.links(), 1);
    const auto outs = engine.run(batch);
    ASSERT_EQ(outs.size(), batch.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      EXPECT_EQ(outs[i], ref.run(batch[i]))
          << (plan ? "compiled plan" : "derived plan") << " image " << i;
    }
  }
}

TEST(FusedConv, SegmentsStartingWithABnActMatchReference) {
  // A segment whose first node is a BnAct gets its codes from the
  // feeder's port: [1, 1] is a lone BnAct (no node task at all, the
  // feeder writes the output ring), [1, 2] the BnAct and the pool it
  // feeds. The inputs are conv_0's real sums.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 72);
  const ReferenceExecutor full(p, params);
  Rng rng(73);
  std::vector<std::vector<IntTensor>> nodes;  // every node's output
  std::vector<IntTensor> sums;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(full.run_all(testutil::random_image(12, 12, 3, rng)));
    sums.push_back(nodes.back()[0]);
  }
  for (const auto& [last, kernels] : {std::pair{1, 0}, std::pair{2, 1}}) {
    const PipelineSegment seg = extract_segment(p, params, 1, last);
    StreamEngine engine(seg.pipeline, seg.params);
    EXPECT_EQ(engine.kernel_count(), kernels) << "last " << last;
    EXPECT_EQ(engine.stream_count(), 1 + kernels) << "last " << last;
    const ReferenceExecutor ref(seg.pipeline, seg.params);
    const auto outs = engine.run(sums);
    ASSERT_EQ(outs.size(), sums.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      EXPECT_EQ(outs[i], ref.run(sums[i])) << "last " << last << " image "
                                           << i;
      EXPECT_EQ(outs[i], nodes[i][static_cast<std::size_t>(last)]);
    }
  }
}

TEST(FusedConv, CutsOnBothSidesOfABnActChainTheirPumps) {
  // Cuts after conv_0 and after bnact_1: link0's pump writes bnact_1's
  // codes into link1's egress ring, link1's pump ships them on raw.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 74);
  const ReferenceExecutor ref(p, params);
  Rng rng(75);
  std::vector<IntTensor> batch;
  for (int i = 0; i < 2; ++i) {
    batch.push_back(testutil::random_image(12, 12, 3, rng));
  }
  LinkedEngineOptions opts;
  opts.cut_after_nodes = {0, 1};
  LinkedEngine engine(p, params, opts);
  ASSERT_EQ(engine.links(), 2);
  const auto outs = engine.run(batch);
  ASSERT_EQ(outs.size(), batch.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i], ref.run(batch[i])) << "image " << i;
  }
}

TEST(FusedConv, CutBeforeATerminalBnActFeedsTheOutputFromThePump) {
  // The network ends in a BnAct: a cut after the dense conv before it
  // leaves the pump to write the BnAct's codes into the output ring.
  NetworkSpec spec;
  spec.name = "bn_head";
  spec.input = Shape{6, 6, 3};
  spec.conv(4, 3, 1, 1);
  spec.dense(5, true);
  const Pipeline p = expand(spec);
  ASSERT_EQ(p.node(p.size() - 1).kind, NodeKind::BnAct);
  const NetworkParams params = NetworkParams::random(p, 76);
  const ReferenceExecutor ref(p, params);
  LinkedEngineOptions opts;
  opts.cut_after_nodes = {p.size() - 2};
  LinkedEngine engine(p, params, opts);
  Rng rng(77);
  for (int i = 0; i < 3; ++i) {
    const IntTensor img = testutil::random_codes(spec.input, 8, rng);
    EXPECT_EQ(engine.run(std::span<const IntTensor>(&img, 1)).front(),
              ref.run(img))
        << "image " << i;
  }
}

}  // namespace
}  // namespace qnn
