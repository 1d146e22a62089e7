// Static analyzer test suite: every malformed-graph class the analyzer
// must reject, each asserted by its stable QNN-Dxxx code, plus the sweep
// proving that every zoo model verifies clean and that the FIFO plan the
// analyzer reasons about is exactly the one the engine wires.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "dataflow/engine.h"
#include "host/session.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "partition/partitioner.h"
#include "plan/compiled_plan.h"
#include "test_util.h"
#include "verify/graph_check.h"
#include "verify/plan_check.h"
#include "verify/token_flow.h"

namespace qnn {
namespace {

/// True when the report carries `code` at error severity.
bool has_error(const Report& report, const char* code) {
  return std::any_of(report.diagnostics().begin(),
                     report.diagnostics().end(), [&](const Diagnostic& d) {
                       return d.code == code &&
                              d.severity == Severity::kError;
                     });
}

struct Fixture {
  Pipeline pipeline;
  NetworkParams params;

  explicit Fixture(std::uint64_t seed = 7)
      : pipeline(expand(models::tiny(12, 4, 2))),
        params(NetworkParams::random(pipeline, seed)) {}

  [[nodiscard]] int first_node(NodeKind kind) const {
    for (int i = 0; i < pipeline.size(); ++i) {
      if (pipeline.node(i).kind == kind) return i;
    }
    ADD_FAILURE() << "fixture pipeline has no node of the requested kind";
    return -1;
  }
  Node& node(int i) { return pipeline.nodes[static_cast<std::size_t>(i)]; }

  [[nodiscard]] Report verify(EngineOptions options = {}) const {
    return verify_graph(pipeline, &params, options);
  }
};

// ---------------------------------------------------------------- clean

TEST(Verify, TinyVerifiesCleanWithProofNotes) {
  const Fixture f;
  const Report r = f.verify();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.errors(), 0);
  EXPECT_EQ(r.warnings(), 0) << r.str();
  // The skip edges' deadlock proofs are recorded, not just implied.
  EXPECT_TRUE(r.has(diag::kSkipCapacity));
}

// The analyzer's verdict does not depend on how kernels are scheduled, so
// the default options cover every executor configuration.
TEST(Verify, ZooModelsVerifyCleanUnderBothExecutors) {
  const NetworkSpec specs[] = {
      models::tiny(12, 4, 2),          models::vgg_like(16, 10, 2),
      models::finn_cnv(10, 2),         models::resnet18(32, 10, 2),
      models::resnet18_noskip(32, 10, 2), models::resnet34(32, 10, 2),
      models::alexnet(224, 10, 2),
  };
  for (const NetworkSpec& spec : specs) {
    const Pipeline p = expand(spec);
    const NetworkParams params = NetworkParams::random(p, 11);
    const Report r = verify_graph(p, &params, EngineOptions{});
    EXPECT_TRUE(r.ok()) << spec.name << ":\n" << r.str();
    EXPECT_EQ(r.warnings(), 0) << spec.name << ":\n" << r.str();
  }
}

TEST(Verify, OptimalPartitionIsFeasible) {
  const Fixture f;
  const PartitionConfig config;
  const PartitionResult placement =
      partition_optimal(f.pipeline, config);
  const Report r =
      verify_all(f.pipeline, &f.params, {}, &placement, config);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.warnings(), 0) << r.str();
}

// ------------------------------------------------------- (a) structure

TEST(Verify, EmptyPipelineIsAnError) {
  const Pipeline p;
  const Report r = verify_graph(p, nullptr);
  EXPECT_TRUE(has_error(r, diag::kBadEdge));
}

TEST(Verify, EdgeBreakingTopologicalOrderIsD001) {
  Fixture f;
  f.node(2).main_from = 5;  // forward reference = cycle
  EXPECT_TRUE(has_error(f.verify(), diag::kBadEdge));
}

TEST(Verify, ForkWithDeadBranchIsD002AndD003) {
  Fixture f;
  // Append a 1x1 pool reading a mid-chain node: the old output node
  // becomes a dead end and the tail of the chain a dead subgraph.
  const int tap = f.first_node(NodeKind::BnAct);
  Node leech;
  leech.kind = NodeKind::MaxPool;
  leech.name = "leech";
  leech.main_from = tap;
  leech.in = f.node(tap).out;
  leech.out = f.node(tap).out;
  leech.in_bits = f.node(tap).out_bits;
  leech.out_bits = f.node(tap).out_bits;
  leech.k = 1;
  leech.stride = 1;
  leech.pad = 0;
  f.pipeline.nodes.push_back(leech);
  const Report r = f.verify();
  EXPECT_TRUE(has_error(r, diag::kDeadEnd));
  EXPECT_TRUE(has_error(r, diag::kUnreachable));
}

TEST(Verify, AddWithoutSkipEdgeIsD004) {
  Fixture f;
  f.node(f.first_node(NodeKind::Add)).skip_from = -1;
  EXPECT_TRUE(has_error(f.verify(), diag::kMissingSkip));
}

TEST(Verify, SkipEdgeOnNonAddNodeIsD005) {
  Fixture f;
  f.node(f.first_node(NodeKind::BnAct)).skip_from = 0;
  EXPECT_TRUE(has_error(f.verify(), diag::kStraySkip));
}

TEST(Verify, SameProducerOnBothAddPortsIsD006Warning) {
  Fixture f;
  Node& add = f.node(f.first_node(NodeKind::Add));
  add.skip_from = add.main_from;
  const Report r = f.verify();
  EXPECT_TRUE(r.has(diag::kDegenerateFork));
  EXPECT_TRUE(r.ok()) << r.str();  // degenerate, but it runs
}

// ---------------------------------------------- (b) shapes / bit widths

TEST(Verify, ShapeMismatchOnEdgeIsD101) {
  Fixture f;
  f.node(f.first_node(NodeKind::Conv)).in.c += 1;
  EXPECT_TRUE(has_error(f.verify(), diag::kShapeMismatch));
}

TEST(Verify, BadWindowGeometryIsD102) {
  Fixture f;
  f.node(f.first_node(NodeKind::Conv)).stride = 0;
  EXPECT_TRUE(has_error(f.verify(), diag::kBadWindow));
}

TEST(Verify, StreamWidthNotMatchingProducerIsD103) {
  Fixture f;
  const int conv = f.first_node(NodeKind::Conv);
  f.node(conv).in_bits += 1;  // producer still streams the old width
  EXPECT_TRUE(has_error(f.verify(), diag::kBitsMismatch));
}

TEST(Verify, OutputWidthBelowValueRangeIsD104) {
  Fixture f;
  // A conv's pre-activation sums need preact_bits(k*k*I, in_bits);
  // declaring 2 bits truncates them (and poisons every downstream plane).
  const int conv = f.first_node(NodeKind::Conv);
  f.node(conv).out_bits = 2;
  EXPECT_TRUE(has_error(f.verify(), diag::kBitsOverflow));
}

TEST(Verify, StreamWidthOutsideSupportedRangeIsD105) {
  Fixture f;
  f.pipeline.nodes.back().out_bits = 40;  // Stream supports [1, 32]
  EXPECT_TRUE(has_error(f.verify(), diag::kBitsRange));
}

// ------------------------------------------------- (b) parameter banks

TEST(Verify, MissingConvBankIsD201) {
  Fixture f;
  f.params.convs.pop_back();
  EXPECT_TRUE(has_error(f.verify(), diag::kParamBank));
}

TEST(Verify, SwappedWeightCachesAreD202) {
  Fixture f;
  // tiny's first and second convolutions have different filter shapes, so
  // swapping their banks misaligns both kernels' weight caches.
  std::size_t a = 0;
  std::size_t b = 1;
  ASSERT_GE(f.params.convs.size(), 2u);
  ASSERT_NE(f.params.convs[a].weights.shape(),
            f.params.convs[b].weights.shape());
  std::swap(f.params.convs[a], f.params.convs[b]);
  EXPECT_TRUE(has_error(f.verify(), diag::kWeightShape));
}

TEST(Verify, ThresholdChannelMismatchIsD203) {
  Fixture f;
  std::size_t a = 0;
  std::size_t b = f.params.bnacts.size() - 1;
  ASSERT_NE(f.params.bnacts[a].thresholds.channels(),
            f.params.bnacts[b].thresholds.channels());
  std::swap(f.params.bnacts[a], f.params.bnacts[b]);
  EXPECT_TRUE(has_error(f.verify(), diag::kThresholdChannels));
}

TEST(Verify, QuantizerWidthMismatchIsD204) {
  Fixture f;
  // The activation stream claims 3 bit-planes but the quantizer and the
  // folded thresholds produce 2-bit codes.
  f.node(f.first_node(NodeKind::BnAct)).out_bits = 3;
  EXPECT_TRUE(has_error(f.verify(), diag::kQuantizerBits));
}

// --------------------------------------------- (c) deadlock / capacity

TEST(Verify, UndersizedSkipFifoIsD301) {
  const Fixture f;
  FifoPlan plan = plan_fifos(f.pipeline);
  const int add = [&] {
    for (int i = 0; i < f.pipeline.size(); ++i) {
      if (f.pipeline.node(i).kind == NodeKind::Add) return i;
    }
    return -1;
  }();
  ASSERT_GE(add, 0);
  bool shrunk = false;
  for (PlannedStream& s : plan.streams) {
    if (s.consumer == add && s.to_skip_port) {
      s.capacity = 8;  // far below the full-feature-map lag bound
      shrunk = true;
    }
  }
  ASSERT_TRUE(shrunk);
  Report r;
  check_capacities(f.pipeline, plan, r);
  EXPECT_TRUE(has_error(r, diag::kSkipCapacity));
}

TEST(Verify, BurstAboveFifoCapacityClampsWithD302) {
  const Fixture f;
  EngineOptions options;
  options.fifo_capacity = 2;
  options.burst = 256;
  const FifoPlan plan = plan_fifos(f.pipeline, options);
  EXPECT_TRUE(plan.burst_clamped);
  EXPECT_EQ(plan.burst, 2u);
  const Report r = f.verify(options);
  EXPECT_TRUE(r.ok()) << r.str();  // degraded, not broken
  EXPECT_TRUE(r.has(diag::kBurstClamp));
}

TEST(Verify, ClampedEngineStaysBitExact) {
  // Satellite regression: fifo_capacity < burst used to push full bursts
  // at 2-deep rings; the engine now clamps its transaction size (D302)
  // and must stay bit-exact against the reference executor.
  const Fixture f;
  EngineOptions options;
  options.fifo_capacity = 2;
  options.burst = 256;
  StreamEngine engine(f.pipeline, f.params, options);
  const ReferenceExecutor ref(f.pipeline, f.params);
  Rng rng(31);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  EXPECT_EQ(engine.run_one(img), ref.run(img));
}

TEST(Verify, ShallowUserFifoWarnsD303) {
  const Fixture f;
  EngineOptions options;
  options.fifo_capacity = 4;
  const Report r = f.verify(options);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.has(diag::kShallowFifo));
}

TEST(Verify, AutoSizedFifosNeverWarn) {
  const Fixture f;
  const Report r = f.verify();
  EXPECT_FALSE(r.has(diag::kShallowFifo));
  EXPECT_FALSE(r.has(diag::kBurstClamp));
}

/// Values in one row (W·C) of the map a planned stream carries.
std::size_t row_of(const Pipeline& p, const PlannedStream& ps) {
  const Shape& carried = ps.producer < 0 ? p.input : p.node(ps.producer).out;
  return static_cast<std::size_t>(carried.w) *
         static_cast<std::size_t>(carried.c);
}

/// An edge whose consumer keeps no line buffer or skip map: its depth is
/// the plan's "two bursts" rule, not a paper buffer formula.
bool is_plain_edge(const Pipeline& p, const PlannedStream& ps) {
  if (ps.consumer < 0) return true;  // terminal output
  const Node& c = p.node(ps.consumer);
  return !c.is_window_op() && !(ps.to_skip_port && c.kind == NodeKind::Add);
}

TEST(Verify, PerEdgeBurstsAreRowSizedAndCapped) {
  const Fixture f;
  // Default options: every edge moves one whole row of the map it
  // carries, and every plain edge holds two of its bursts (never below
  // kMinFifoCapacity).
  const FifoPlan plan = plan_fifos(f.pipeline);
  EXPECT_EQ(plan.burst, 0u);  // no plan-wide cap
  EXPECT_FALSE(plan.burst_clamped);
  for (const PlannedStream& ps : plan.streams) {
    EXPECT_EQ(ps.burst, row_of(f.pipeline, ps)) << ps.name;
    EXPECT_LE(ps.burst, ps.capacity) << ps.name;  // D302 invariant
    if (is_plain_edge(f.pipeline, ps)) {
      EXPECT_EQ(ps.capacity, std::max(2 * ps.burst, kMinFifoCapacity))
          << ps.name;
    }
  }
  // An explicit EngineOptions::burst caps every edge's row.
  EngineOptions capped;
  capped.burst = 40;
  const FifoPlan cplan = plan_fifos(f.pipeline, capped);
  EXPECT_EQ(cplan.burst, 40u);
  for (const PlannedStream& ps : cplan.streams) {
    EXPECT_EQ(ps.burst, std::min<std::size_t>(row_of(f.pipeline, ps), 40))
        << ps.name;
  }
}

TEST(Verify, PaperNetworksMoveWholeRowsWithoutD302OrD303) {
  for (const NetworkSpec& spec :
       {models::resnet18(224, 1000, 2), models::vgg_like(32, 10, 2)}) {
    const Pipeline p = expand(spec);
    const FifoPlan plan = plan_fifos(p);
    for (const PlannedStream& ps : plan.streams) {
      EXPECT_EQ(ps.burst, row_of(p, ps)) << spec.name << " " << ps.name;
      if (is_plain_edge(p, ps)) {
        EXPECT_GE(ps.capacity, 2 * ps.burst) << spec.name << " " << ps.name;
      }
    }
    Report r;
    check_capacities(p, plan, r);
    EXPECT_TRUE(r.ok()) << spec.name << ":\n" << r.str();
    EXPECT_FALSE(r.has(diag::kBurstClamp)) << spec.name << ":\n" << r.str();
    EXPECT_FALSE(r.has(diag::kShallowFifo)) << spec.name << ":\n" << r.str();
  }
}

// The tiny network's rows are all shorter than kDefaultBurst, so every
// plain edge sits at the kMinFifoCapacity floor: the token-flow brackets
// below (and their engine runs) are calibrated against these exact
// depths.
TEST(Verify, TinyDefaultPlanIsPinned) {
  struct Pinned {
    const char* name;
    std::size_t capacity;
    std::size_t burst;
  };
  const Pinned expected[] = {
      // No ring goes into a BnAct: the port that writes its input (conv_0,
      // conv_3, add_6, conv_9, add_12) writes its codes.
      {"input->conv_0", 512, 36},         {"bnact_1->maxpool_2", 512, 96},
      {"maxpool_2=>conv_3", 512, 48},
      {"maxpool_2=>add_6", 352, 48},      {"bnact_4->conv_5", 512, 48},
      {"conv_5->add_6", 512, 48},
      {"bnact_7=>conv_8", 512, 48},
      {"bnact_7=>conv_9", 512, 48},       {"conv_8->add_12", 208, 48},
      {"bnact_10->conv_11", 512, 48},     {"conv_11->add_12", 512, 48},
      {"bnact_13->avgpool_14", 512, 48},
      {"avgpool_14->conv_15", 512, 16},   {"conv_15->output", 512, 4},
  };
  const Fixture f;
  const FifoPlan plan = plan_fifos(f.pipeline);
  ASSERT_EQ(plan.streams.size(), std::size(expected));
  for (std::size_t i = 0; i < plan.streams.size(); ++i) {
    const PlannedStream& ps = plan.streams[i];
    EXPECT_EQ(ps.name, expected[i].name) << i;
    EXPECT_EQ(ps.capacity, expected[i].capacity) << ps.name;
    EXPECT_EQ(ps.burst, expected[i].burst) << ps.name;
  }
}

TEST(Verify, AdaptiveBurstOffUsesThePlanWideValueEverywhere) {
  const Fixture f;
  EngineOptions options;
  options.adaptive_burst = false;
  const FifoPlan plan = plan_fifos(f.pipeline, options);
  for (const PlannedStream& ps : plan.streams) {
    EXPECT_EQ(ps.burst, plan.burst) << ps.name;
  }
}

TEST(Verify, HandcraftedBurstAboveRingIsRejected) {
  // The engine consumes PlannedStream::burst verbatim, so the analyzer
  // must reject any plan whose per-edge burst could never complete.
  const Fixture f;
  FifoPlan plan = plan_fifos(f.pipeline);
  ASSERT_FALSE(plan.streams.empty());
  plan.streams.front().burst = plan.streams.front().capacity + 1;
  Report r;
  check_capacities(f.pipeline, plan, r);
  EXPECT_TRUE(has_error(r, diag::kBurstClamp));
}

// ------------------------------- (c) exact token-flow deadlock decisions

/// True when the report carries `code` at `severity` with `fragment`
/// somewhere in the message.
bool has_diag(const Report& report, const char* code, Severity severity,
              const char* fragment) {
  return std::any_of(
      report.diagnostics().begin(), report.diagnostics().end(),
      [&](const Diagnostic& d) {
        return d.code == code && d.severity == severity &&
               d.message.find(fragment) != std::string::npos;
      });
}

/// The default plan with the skip FIFO into `add` resized (burst clamped
/// to the ring so the D302 invariant holds, as a real plan would).
FifoPlan with_skip_capacity(const Pipeline& p, int add, std::size_t cap) {
  FifoPlan plan = plan_fifos(p);
  bool found = false;
  for (PlannedStream& s : plan.streams) {
    if (s.consumer == add && s.to_skip_port) {
      s.capacity = cap;
      s.burst = std::min(s.burst, cap);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "node " << add << " has no planned skip edge";
  return plan;
}

/// tiny's two residual adders: add_6 takes its skip straight off the
/// fan-out point (the pure delay-buffer case), add_12's skip path carries its own
/// downsampling convolution (the re-convergent case).
constexpr int kForkFedAdd = 6;
constexpr int kReconvergentAdd = 12;

TEST(TokenFlow, BelowBoundSkipFifoIsProvedFeasibleExactly) {
  // 160 values is far below the 288-value feature-map bound that used to
  // be a hard D301 error, yet covers the regular path's true lag: the
  // exact simulation proves it safe under every schedule.
  const Fixture f;
  Report r;
  check_capacities(f.pipeline,
                   with_skip_capacity(f.pipeline, kForkFedAdd, 160), r);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.warnings(), 0) << r.str();
  EXPECT_TRUE(has_diag(r, diag::kSkipCapacity, Severity::kInfo,
                       "exact token-flow proof"))
      << r.str();
}

TEST(TokenFlow, ReconvergentSkipPathIsProvedFeasibleAtTinyCapacity) {
  // The skip path into add_12 runs through its own 1x1 stride-2
  // convolution, which lags the main path almost in lockstep — a 4-value
  // skip FIFO is enough, although the feature-map bound is 144.
  const Fixture f;
  Report r;
  check_capacities(f.pipeline,
                   with_skip_capacity(f.pipeline, kReconvergentAdd, 4), r);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.warnings(), 0) << r.str();
  EXPECT_TRUE(has_diag(r, diag::kSkipCapacity, Severity::kInfo,
                       "exact token-flow proof"))
      << r.str();
}

TEST(TokenFlow, TrulyUndersizedSkipFifoIsRefutedWithWitness) {
  // 8 values cannot absorb even one retained scanner row of the regular
  // path; the simulation deadlocks with full burst slack, and the error
  // names the quiescent cycle instead of just predicting it.
  const Fixture f;
  Report r;
  check_capacities(f.pipeline,
                   with_skip_capacity(f.pipeline, kForkFedAdd, 8), r);
  EXPECT_TRUE(has_error(r, diag::kSkipCapacity));
  EXPECT_TRUE(has_diag(r, diag::kSkipCapacity, Severity::kError,
                       "token-flow simulation deadlocks"))
      << r.str();
  EXPECT_TRUE(has_diag(r, diag::kSkipCapacity, Severity::kError, "blocked"))
      << r.str();
}

TEST(TokenFlow, ScheduleDependentCapacityIsD304NotAGuess) {
  // In the band where only burst buffers bridge the overhang, liveness
  // depends on how the scheduler interleaves refills — neither provable
  // nor refutable, and reported as exactly that.
  const Fixture f;
  Report r;
  check_capacities(f.pipeline,
                   with_skip_capacity(f.pipeline, kForkFedAdd, 64), r);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_TRUE(has_diag(r, diag::kUnprovable, Severity::kWarning,
                       "schedule-dependent"))
      << r.str();
}

TEST(TokenFlow, VerdictsBracketTheEngine) {
  const Fixture f;
  const auto verdict = [&](int add, std::size_t cap) {
    return prove_token_flow(f.pipeline,
                            with_skip_capacity(f.pipeline, add, cap))
        .verdict;
  };
  EXPECT_EQ(verdict(kForkFedAdd, 8), TokenVerdict::kDeadlock);
  EXPECT_EQ(verdict(kForkFedAdd, 64), TokenVerdict::kMarginal);
  EXPECT_EQ(verdict(kForkFedAdd, 160), TokenVerdict::kFeasible);
  EXPECT_EQ(verdict(kReconvergentAdd, 1), TokenVerdict::kFeasible);
}

TEST(TokenFlow, DeadlockWitnessNamesTheJammedSkipEdge) {
  const Fixture f;
  const TokenFlowResult r = prove_token_flow(
      f.pipeline, with_skip_capacity(f.pipeline, kForkFedAdd, 8));
  ASSERT_EQ(r.verdict, TokenVerdict::kDeadlock);
  EXPECT_NE(r.witness.find("maxpool_2=>add_6"), std::string::npos)
      << r.witness;
  EXPECT_NE(r.witness.find("full"), std::string::npos) << r.witness;
}

TEST(TokenFlow, ExhaustedBudgetIsUndecidedNeverAssumedSafe) {
  const Fixture f;
  TokenFlowBudget budget;
  budget.max_tokens = 100;  // far below one image of traffic
  const TokenFlowResult r = prove_token_flow(
      f.pipeline, with_skip_capacity(f.pipeline, kForkFedAdd, 160), budget);
  EXPECT_EQ(r.verdict, TokenVerdict::kUndecided);
}

TEST(TokenFlow, ProvedFeasiblePlanActuallyRuns) {
  // Close the loop on the proof: an engine wired with the below-bound
  // skip capacity the simulation proved safe must complete and stay
  // bit-exact against the reference executor.
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  bool shrunk = false;
  for (PlannedStream& s : plan.fifos.streams) {
    if (s.consumer == kForkFedAdd && s.to_skip_port) {
      s.capacity = 160;
      s.burst = std::min<std::size_t>(s.burst, 160);
      shrunk = true;
    }
  }
  ASSERT_TRUE(shrunk);
  EngineOptions options;
  options.plan = &plan;
  StreamEngine engine(f.pipeline, f.params, options);
  const ReferenceExecutor ref(f.pipeline, f.params);
  Rng rng(53);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  EXPECT_EQ(engine.run_one(img), ref.run(img));
}

/// One link cut after `after`, framed at `frame` values.
std::vector<LinkCut> link_after(int after, std::size_t frame) {
  LinkCut cut;
  cut.after_node = after;
  cut.frame_values = frame;
  cut.config.name = "link0";
  return {cut};
}

TEST(TokenFlow, RoutedLinkRingsArePlannedAndProved) {
  // A cut upstream of the fork: the routed plan carries the link's egress
  // ring (one frame deep at least) and its ingress ring (the severed
  // edge's capacity), and the exact proof runs over the pump between them.
  const Fixture f;
  FifoPlan plan = with_skip_capacity(f.pipeline, kForkFedAdd, 160);
  const std::size_t before = plan.streams.size();
  const PlannedStream severed = *plan.find_edge(2, false);
  route_links(f.pipeline, plan, link_after(1, 100));
  ASSERT_EQ(plan.streams.size(), before + 1);
  const auto out = std::find_if(
      plan.streams.begin(), plan.streams.end(), [](const PlannedStream& s) {
        return s.role == PlannedStream::Role::kLinkOut;
      });
  ASSERT_NE(out, plan.streams.end());
  EXPECT_EQ(out->name, f.pipeline.node(1).name + "->link0");
  EXPECT_EQ(out->link, 0);
  EXPECT_EQ(out->burst, 100u);
  EXPECT_GE(out->capacity, 100u);
  const PlannedStream* in = plan.find_edge(2, false);
  ASSERT_EQ(in, nullptr) << "the severed edge is no longer direct";
  const auto ingress = std::next(out);
  ASSERT_EQ(ingress->role, PlannedStream::Role::kLinkIn);
  EXPECT_EQ(ingress->consumer, 2);
  EXPECT_EQ(ingress->capacity, severed.capacity);
  EXPECT_EQ(ingress->burst, severed.burst);
  EXPECT_EQ(prove_token_flow(f.pipeline, plan).verdict,
            TokenVerdict::kFeasible);
  // The routed rings do not mask a genuinely undersized skip FIFO.
  FifoPlan tight = with_skip_capacity(f.pipeline, kForkFedAdd, 8);
  route_links(f.pipeline, tight, link_after(1, 100));
  EXPECT_EQ(prove_token_flow(f.pipeline, tight).verdict,
            TokenVerdict::kDeadlock);
}

TEST(TokenFlow, PumpFrameBufferingIsModeledExactly) {
  // A pump on the regular path between fork and adder holds a whole frame
  // before any of it moves on, which lengthens that path's lag. At a skip
  // capacity the plain graph provably clears, a pump framing the whole map
  // must deadlock the proof — the pump is not an elementwise pass-through.
  const Fixture f;
  const int main_after_fork = 3;
  ASSERT_EQ(f.pipeline.node(kForkFedAdd).skip_from, 2);
  FifoPlan plain = with_skip_capacity(f.pipeline, kForkFedAdd, 160);
  ASSERT_EQ(prove_token_flow(f.pipeline, plain).verdict,
            TokenVerdict::kFeasible);
  const auto map = static_cast<std::size_t>(
      f.pipeline.node(main_after_fork).out.elems());
  FifoPlan small = plain;
  route_links(f.pipeline, small, link_after(main_after_fork, 1));
  EXPECT_EQ(prove_token_flow(f.pipeline, small).verdict,
            TokenVerdict::kFeasible);
  FifoPlan whole = plain;
  route_links(f.pipeline, whole, link_after(main_after_fork, map));
  const TokenFlowResult r = prove_token_flow(f.pipeline, whole);
  EXPECT_EQ(r.verdict, TokenVerdict::kDeadlock);
  EXPECT_NE(r.witness.find("link0"), std::string::npos) << r.witness;
}

TEST(TokenFlow, LinkCutWithoutASingleDirectEdgeIsRefused) {
  // The fork output feeds two consumers; no one direct edge leaves it, so
  // the cut cannot be routed and the analyzer says so.
  const Fixture f;
  FifoPlan plan = plan_fifos(f.pipeline);
  EXPECT_THROW(route_links(f.pipeline, plan, link_after(2, 64)), Error);
  const Report r =
      verify_graph(f.pipeline, &f.params, {}, link_after(2, 64));
  EXPECT_TRUE(has_error(r, diag::kCutCrossesSkip)) << r.str();
}

// ------------------------------------------ (d) partition feasibility

TEST(Verify, OversubscribedMaxRingLinkIsD401) {
  const Fixture f;
  PartitionConfig config;
  config.link_gbps = 1e-6;  // practically no link bandwidth
  PartitionResult placement;
  placement.dfes.push_back(DfeAssignment{0, 0, 0, 0, 0, 0});
  placement.dfes.push_back(
      DfeAssignment{1, f.pipeline.size() - 1, 0, 0, 0, 0});
  Report r;
  check_partition(f.pipeline, placement, config, r);
  EXPECT_TRUE(has_error(r, diag::kLinkOversubscribed));
}

TEST(Verify, OverfilledDfeIsD402) {
  const Fixture f;
  PartitionConfig config;
  config.device.luts = 100;  // toy device: nothing fits
  PartitionResult placement;
  placement.dfes.push_back(
      DfeAssignment{0, f.pipeline.size() - 1, 0, 0, 0, 0});
  Report r;
  check_partition(f.pipeline, placement, config, r);
  EXPECT_TRUE(has_error(r, diag::kDfeOverfill));
}

TEST(Verify, PlacementBeyondNodeDfesIsD403) {
  const Fixture f;
  PartitionConfig config;
  config.max_dfes = 1;
  PartitionResult placement;
  placement.dfes.push_back(DfeAssignment{0, 0, 0, 0, 0, 0});
  placement.dfes.push_back(
      DfeAssignment{1, f.pipeline.size() - 1, 0, 0, 0, 0});
  Report r;
  check_partition(f.pipeline, placement, config, r);
  EXPECT_TRUE(has_error(r, diag::kTooManyDfes));
}

TEST(Verify, NonTilingSegmentsAreD404) {
  const Fixture f;
  PartitionResult placement;
  placement.dfes.push_back(DfeAssignment{0, 2, 0, 0, 0, 0});
  placement.dfes.push_back(
      DfeAssignment{2, f.pipeline.size() - 1, 0, 0, 0, 0});  // overlap
  Report r;
  check_partition(f.pipeline, placement, {}, r);
  EXPECT_TRUE(has_error(r, diag::kBadSegments));
}

// -------------------------------------------------- engine integration

TEST(Verify, EngineRefusesMalformedGraphWithDiagnosticCode) {
  Fixture f;
  f.node(f.first_node(NodeKind::Add)).skip_from = -1;
  try {
    StreamEngine engine(f.pipeline, f.params);
    FAIL() << "constructing an engine over a malformed graph must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QNN-D004"), std::string::npos)
        << e.what();
  }
}

TEST(Verify, EngineVerificationCanBeOptedOut) {
  // Tests that need deliberately broken graphs (and the historical
  // behavior) can still construct an engine; it is just never run here.
  Fixture f;
  const int conv = f.first_node(NodeKind::Conv);
  f.node(conv).out_bits = 2;  // D104: truncating, but wireable
  EngineOptions options;
  options.verify = false;
  StreamEngine engine(f.pipeline, f.params, options);
  EXPECT_GT(engine.kernel_count(), 0);
}

TEST(Verify, SessionCompileRejectsSwappedWeightCaches) {
  Fixture f;
  std::swap(f.params.convs[0], f.params.convs[1]);
  try {
    (void)DfeSession::compile(models::tiny(12, 4, 2), f.params);
    FAIL() << "compile over mismatched weight caches must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QNN-D202"), std::string::npos)
        << e.what();
  }
}

TEST(Verify, FifoPlanMatchesEngineStreamForStream) {
  const Fixture f;
  const EngineOptions options;
  const FifoPlan plan = plan_fifos(f.pipeline, options);
  StreamEngine engine(f.pipeline, f.params, options);
  ASSERT_EQ(static_cast<std::size_t>(engine.stream_count()),
            plan.streams.size());
  const auto traffic = engine.stream_traffic();
  for (std::size_t i = 0; i < plan.streams.size(); ++i) {
    EXPECT_EQ(traffic[i].first, plan.streams[i].name);
  }
}

TEST(Verify, ReportRendersCodesAndSummary) {
  Report r;
  r.error(diag::kDeadEnd, 3, "conv_3", "output stream is never consumed");
  r.warn(diag::kShallowFifo, 4, "edge", "shallow");
  r.info(diag::kSkipCapacity, 5, "edge", "proved");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.errors(), 1);
  EXPECT_EQ(r.warnings(), 1);
  EXPECT_EQ(r.count(diag::kDeadEnd), 1);
  const std::string text = r.str();
  EXPECT_NE(text.find("QNN-D002 [error] conv_3"), std::string::npos);
  // Severity filtering drops the info note but keeps the warning.
  EXPECT_EQ(r.str(Severity::kWarning).find("QNN-D301"), std::string::npos);
  EXPECT_NE(r.summary().find("FAIL"), std::string::npos);
}

TEST(Verify, ReportJsonIsMachineReadableAndEscaped) {
  Report r;
  r.error(diag::kDeadEnd, 3, "conv_3",
          "output \"stream\" is never\nconsumed");
  r.warn(diag::kShallowFifo, 4, "edge", "shallow");
  const std::string j = r.json();
  EXPECT_NE(j.find("\"ok\": false"), std::string::npos) << j;
  EXPECT_NE(j.find("\"errors\": 1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"warnings\": 1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"code\": \"QNN-D002\""), std::string::npos) << j;
  EXPECT_NE(j.find("\\\"stream\\\""), std::string::npos) << j;  // escaped
  EXPECT_NE(j.find("never\\nconsumed"), std::string::npos) << j;
  const Report empty;
  EXPECT_NE(empty.json().find("\"diagnostics\": []"), std::string::npos);
}

// ---------------------- compiled-plan consistency lint (D305/D61x)

TEST(PlanLint, FreshlyCompiledPlanReVerifiesWithInfoNote) {
  const Fixture f;
  const CompiledPlan plan = compile_plan(f.pipeline);
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.warnings(), 0) << r.str();
  EXPECT_TRUE(has_diag(r, diag::kPlanMismatch, Severity::kInfo,
                       "re-verified"))
      << r.str();
}

TEST(PlanLint, StaleModelHashIsD305NamingTheField) {
  const Fixture f;
  // Tune against a structurally different network, then apply here.
  const CompiledPlan plan = compile_plan(expand(models::tiny(16, 4, 2)));
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, diag::kPlanMismatch, Severity::kError,
                       "field 'key.model_hash'"))
      << r.str();
}

TEST(PlanLint, WrongFormatVersionIsD305NamingTheField) {
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  plan.version = kPlanFormatVersion + 1;
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_TRUE(has_diag(r, diag::kPlanMismatch, Severity::kError,
                       "field 'version'"))
      << r.str();
}

TEST(PlanLint, ForeignMachineFingerprintIsD611Warning) {
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  plan.key.machine = "aarch64-64c";
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_TRUE(r.ok()) << r.str();  // still runs bit-exactly: warn, not error
  EXPECT_TRUE(has_diag(r, diag::kMachineDrift, Severity::kWarning,
                       "field 'key.machine'"))
      << r.str();
}

TEST(PlanLint, CorruptStreamTableIsD305NamingTheField) {
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  plan.fifos.streams[0].capacity = 0;
  plan.fifos.streams[1].consumer = 99;
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, diag::kPlanMismatch, Severity::kError,
                       "zero-capacity FIFO"))
      << r.str();
  EXPECT_TRUE(has_diag(r, diag::kPlanMismatch, Severity::kError,
                       "outside this pipeline's"))
      << r.str();
  // The offending field is named in the finding's location.
  EXPECT_NE(r.str().find(".capacity"), std::string::npos) << r.str();
  EXPECT_NE(r.str().find(".consumer"), std::string::npos) << r.str();
}

TEST(PlanLint, MissingEdgeIsD305) {
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  plan.fifos.streams.pop_back();  // truncated file lost an edge
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, diag::kPlanMismatch, Severity::kError,
                       "has no planned stream"))
      << r.str();
}

TEST(PlanLint, BurstAboveOwnFifoIsD612Error) {
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  plan.fifos.streams[0].burst = plan.fifos.streams[0].capacity + 1;
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, diag::kBurstFifoSkew, Severity::kError,
                       "exceeds the stream's own FIFO capacity"))
      << r.str();
}

TEST(PlanLint, LinkBurstDisagreeingWithPlanIsD612Warning) {
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  ASSERT_FALSE(plan.link_bursts.empty());
  plan.link_bursts[0].values += 1;
  Report r;
  lint_plan(f.pipeline, plan, r);
  EXPECT_TRUE(r.ok()) << r.str();  // only the link models are mis-priced
  EXPECT_TRUE(has_diag(r, diag::kBurstFifoSkew, Severity::kWarning,
                       "field 'link_bursts'"))
      << r.str();
}

TEST(PlanLint, VerifyGraphRunsTheLintOnArmedPlans) {
  const Fixture f;
  CompiledPlan plan = compile_plan(f.pipeline);
  plan.fifos.streams[0].burst = plan.fifos.streams[0].capacity + 1;
  EngineOptions options;
  options.plan = &plan;
  const Report r = f.verify(options);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(diag::kBurstFifoSkew)) << r.str();
  // And the engine refuses to arm it, with the code in the error text.
  try {
    StreamEngine engine(f.pipeline, f.params, options);
    FAIL() << "engine must refuse a skewed plan";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QNN-D612"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------- replica pool pinning (D610)

TEST(PlanLint, OverlappingPinWindowsAreD610) {
  Report r;
  lint_pool_pinning({{"replica 0 (engine)", 0, 4},
                     {"replica 1 (engine)", 2, 4}},
                    r, /*hardware_cores=*/16);
  EXPECT_TRUE(r.ok());  // throughput hazard, not a correctness error
  EXPECT_TRUE(has_diag(r, diag::kPinOverlap, Severity::kWarning,
                       "overlaps 'replica 1 (engine)' on cores [2, 4)"))
      << r.str();
}

TEST(PlanLint, DisjointPinWindowsLintCleanWithInfoNote) {
  Report r;
  lint_pool_pinning({{"replica 0", 0, 4},
                     {"replica 1", 4, 4},
                     {"replica 2", 8, 4}},
                    r, /*hardware_cores=*/16);
  EXPECT_EQ(r.warnings(), 0) << r.str();
  EXPECT_TRUE(has_diag(r, diag::kPinOverlap, Severity::kInfo,
                       "pairwise disjoint"))
      << r.str();
}

TEST(PlanLint, WindowPastTheLastCoreIsD610BecausePinsWrap) {
  Report r;
  lint_pool_pinning({{"replica 0", 14, 4}}, r, /*hardware_cores=*/16);
  EXPECT_TRUE(has_diag(r, diag::kPinOverlap, Severity::kWarning,
                       "wraps pins modulo the core count"))
      << r.str();
}

TEST(PlanLint, UnpinnedWindowsAreIgnored) {
  Report r;
  lint_pool_pinning({{"replica 0", 0, 0}, {"replica 1", 0, 0}}, r,
                    /*hardware_cores=*/16);
  EXPECT_EQ(static_cast<int>(r.diagnostics().size()), 0) << r.str();
}

}  // namespace
}  // namespace qnn
