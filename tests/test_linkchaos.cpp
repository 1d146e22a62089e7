// End-to-end link chaos: the partitioned LinkedEngine runtime under
// seeded MaxRing faults — segment extraction, bit-exact multi-DFE chains,
// mid-run permanent link death with degraded-plan failover, and a
// DfeServer serving straight through a link death with zero lost futures.
#include "dataflow/linked_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "backend/builtin.h"
#include "fault/fault.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "plan/compiled_plan.h"
#include "serve/server.h"
#include "test_util.h"

namespace qnn {
namespace {

/// vgg_like(16, ...) expands to a purely sequential 20-node chain — every
/// cut is a chain cut, so a 4-DFE partition {4, 9, 14} (one link per
/// maxpool boundary) is always available.
struct ChainNet {
  NetworkSpec spec = models::vgg_like(16, 4, 2);
  Pipeline pipeline = expand(spec);
  NetworkParams params = NetworkParams::random(pipeline, 77);

  [[nodiscard]] std::vector<IntTensor> batch(int n, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<IntTensor> images;
    images.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      images.push_back(testutil::random_image(16, 16, 3, rng));
    }
    return images;
  }
};

const std::vector<int> kFourDfeCut = {4, 9, 14};

[[nodiscard]] bool is_link_kind(FaultKind kind) {
  return kind == FaultKind::kLinkOutage ||
         kind == FaultKind::kLinkFrameCorrupt ||
         kind == FaultKind::kLinkDeath;
}

// ---- segment extraction ----------------------------------------------------

TEST(LinkChaos, ExtractSegmentRebasesAChainSegment) {
  const ChainNet net;
  const PipelineSegment head =
      extract_segment(net.pipeline, net.params, 0, 4);
  EXPECT_EQ(head.pipeline.size(), 5);
  EXPECT_EQ(head.pipeline.input, net.pipeline.input);
  EXPECT_EQ(head.pipeline.node(0).name, net.pipeline.node(0).name);

  const PipelineSegment mid = extract_segment(net.pipeline, net.params, 5, 9);
  EXPECT_EQ(mid.pipeline.size(), 5);
  // The segment's input is the stream a MaxRing link would carry: the
  // output of the node just before the cut.
  EXPECT_EQ(mid.pipeline.input, net.pipeline.node(4).out);
  EXPECT_EQ(mid.pipeline.input_bits, net.pipeline.node(4).out_bits);
  EXPECT_EQ(mid.pipeline.node(0).main_from, -1);  // rebased to segment input
  EXPECT_EQ(mid.pipeline.node(0).name, net.pipeline.node(5).name);
  // Parameter banks are re-indexed per segment: every node's `param`
  // points into the segment's own (smaller) vectors.
  EXPECT_LT(mid.params.convs.size(), net.params.convs.size());
  for (int i = 0; i < mid.pipeline.size(); ++i) {
    const Node& n = mid.pipeline.node(i);
    if (n.kind == NodeKind::Conv) {
      ASSERT_GE(n.param, 0);
      ASSERT_LT(static_cast<std::size_t>(n.param), mid.params.convs.size());
    }
  }
}

TEST(LinkChaos, ExtractSegmentRefusesNonChainCuts) {
  // tiny has a residual skip 2 -> 6: starting a segment at node 3 would
  // orphan the skip edge, which must be refused loudly.
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 5);
  EXPECT_THROW((void)extract_segment(p, params, 3, 6), Error);
}

// ---- healthy multi-DFE chain ----------------------------------------------

TEST(LinkChaos, FourSegmentChainIsBitExact) {
  const ChainNet net;
  LinkedEngineOptions opts;
  opts.cut_after_nodes = kFourDfeCut;
  LinkedEngine engine(net.pipeline, net.params, opts);
  EXPECT_EQ(engine.segments(), 4);
  EXPECT_EQ(engine.links(), 3);

  const ReferenceExecutor ref(net.pipeline, net.params);
  const std::vector<IntTensor> images = net.batch(6, 21);
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> out =
      engine.run(std::span<const IntTensor>(images), &stats);
  ASSERT_EQ(out.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(images[i])) << "image " << i;
  }
  EXPECT_GT(stats.link_frames, 0u);
  EXPECT_EQ(stats.link_retransmits, 0u);
  EXPECT_EQ(stats.link_failovers, 0u);
  EXPECT_EQ(stats.links, 3);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(stats.link_health[static_cast<std::size_t>(k)], 1.0);
    EXPECT_TRUE(engine.link_healthy(k));
  }
}

TEST(LinkChaos, FourSegmentChainIsBitExactOnOneWorker) {
  // One worker runs every kernel and every pump of the chain: if any pump
  // ever waited on another task, this run would never finish.
  const ChainNet net;
  LinkedEngineOptions opts;
  opts.cut_after_nodes = kFourDfeCut;
  opts.engine.pool_threads = 1;
  LinkedEngine engine(net.pipeline, net.params, opts);
  ASSERT_EQ(engine.segments(), 4);

  const ReferenceExecutor ref(net.pipeline, net.params);
  const std::vector<IntTensor> images = net.batch(5, 23);
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> out =
      engine.run(std::span<const IntTensor>(images), &stats);
  ASSERT_EQ(out.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(images[i])) << "image " << i;
  }
  EXPECT_GT(stats.link_frames, 0u);
  EXPECT_EQ(stats.link_retransmits, 0u);
}

TEST(LinkChaos, EveryChainCutIsBitExact) {
  // Every single cut of the chain, plus a few 2- and 3-cut sets, against
  // the unsplit engine. Frames never straddle images, so each link ships
  // exactly ceil(boundary values / frame) frames per image.
  const ChainNet net;
  const std::vector<IntTensor> images = net.batch(3, 29);
  StreamEngine unsplit(net.pipeline, net.params);
  const std::vector<IntTensor> expected =
      unsplit.run(std::span<const IntTensor>(images));
  std::vector<std::vector<int>> cut_sets;
  for (int after = 0; after + 1 < net.pipeline.size(); ++after) {
    cut_sets.push_back({after});
  }
  cut_sets.push_back({0, 1});
  cut_sets.push_back({2, 12});
  cut_sets.push_back({7, 8, 18});
  cut_sets.push_back({1, 10, 17});
  constexpr std::size_t kFrame = 100;
  for (const std::vector<int>& cuts : cut_sets) {
    std::string label;
    for (const int c : cuts) label += " " + std::to_string(c);
    LinkedEngineOptions opts;
    opts.cut_after_nodes = cuts;
    opts.frame_values = kFrame;
    LinkedEngine engine(net.pipeline, net.params, opts);
    ASSERT_EQ(engine.segments(), static_cast<int>(cuts.size()) + 1) << label;
    StreamEngine::RunStats stats;
    const std::vector<IntTensor> out =
        engine.run(std::span<const IntTensor>(images), &stats);
    ASSERT_EQ(out.size(), images.size()) << label;
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_EQ(out[i], expected[i]) << "cut" << label << " image " << i;
    }
    std::uint64_t frames = 0;
    for (const int c : cuts) {
      const auto boundary =
          static_cast<std::uint64_t>(net.pipeline.node(c).out.elems());
      frames += (boundary + kFrame - 1) / kFrame * images.size();
    }
    EXPECT_EQ(stats.link_frames, frames) << "cut" << label;
    EXPECT_EQ(stats.link_retransmits, 0u) << "cut" << label;
  }
}

#if defined(__linux__)
TEST(LinkChaos, LinkedRunUsesOnePoolAndNoSegmentThreads) {
  // The whole chain runs on the engine's one Executor: after a run, the
  // process holds exactly pool_threads more threads (the parked workers),
  // however many segments the cut makes.
  const auto count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  // A joined thread can linger in /proc for a moment after join()
  // returns, so read the count once it has held still.
  const auto threads = [&count] {
    std::size_t last = count();
    for (int stable = 0, i = 0; stable < 3 && i < 400; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const std::size_t now = count();
      stable = now == last ? stable + 1 : 0;
      last = now;
    }
    return last;
  };
  const ChainNet net;
  const std::vector<IntTensor> images = net.batch(2, 31);
  // Runtimes that start a helper thread with the first thread the
  // process creates (ThreadSanitizer does) must not count as ours.
  std::thread([] {}).join();
  const std::size_t before = threads();
  {
    LinkedEngineOptions opts;
    opts.cut_after_nodes = kFourDfeCut;
    opts.engine.pool_threads = 2;
    LinkedEngine engine(net.pipeline, net.params, opts);
    (void)engine.run(std::span<const IntTensor>(images));
    EXPECT_EQ(threads(), before + 2);
    (void)engine.run(std::span<const IntTensor>(images));
    EXPECT_EQ(threads(), before + 2) << "runs reuse the pool";
  }
  EXPECT_EQ(threads(), before);
}
#endif

// ---- permanent link death mid-run ------------------------------------------

TEST(LinkChaos, PermanentLinkDeathFailsOverMidRunZeroLost) {
  const ChainNet net;
  LinkedEngineOptions opts;
  opts.cut_after_nodes = kFourDfeCut;
  // Tight watchdog so the seeded death escalates quickly under sanitizers.
  opts.ack_timeout_us = 2'000;
  opts.max_retransmits = 3;
  opts.retransmit_backoff_us = 200;
  opts.engine.faults.add(FaultPlan::link_death(
      /*link=*/1, /*run=*/0, /*after_frames=*/6));
  std::vector<std::string> timeline;
  opts.on_event = [&timeline](const std::string& what) {
    timeline.push_back(what);
  };
  LinkedEngine engine(net.pipeline, net.params, opts);

  const ReferenceExecutor ref(net.pipeline, net.params);
  const std::vector<IntTensor> images = net.batch(8, 33);
  StreamEngine::RunStats stats;
  // A concurrent observer reads the cut while failover replaces it.
  std::atomic<bool> running{true};
  std::thread observer([&] {
    while (running.load()) {
      const std::vector<int> cuts = engine.cut_after_nodes();
      EXPECT_LE(cuts.size(), kFourDfeCut.size());
      (void)engine.segments();
    }
  });
  const std::vector<IntTensor> out =
      engine.run(std::span<const IntTensor>(images), &stats);
  running.store(false);
  observer.join();

  // Zero lost work, bit-exact through the failover: the images the failed
  // attempt did not finish were replayed on the degraded plan.
  ASSERT_EQ(out.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(images[i])) << "image " << i;
  }
  EXPECT_GE(stats.link_failovers, 1u);
  EXPECT_GE(engine.plan_failovers(), 1u);
  EXPECT_FALSE(engine.link_healthy(1));
  EXPECT_EQ(stats.links, 3);  // physical chain shape is reported unchanged
  EXPECT_EQ(stats.link_health[1], 0.0);
  // The degraded cut is what the engine reports: no link at or past the
  // dead one (the chain is daisy-wired, so link 1 down strands DFEs 2-3).
  const std::vector<int> degraded = engine.cut_after_nodes();
  EXPECT_NE(degraded, kFourDfeCut);
  EXPECT_LE(degraded.size(), 1u);
  EXPECT_EQ(engine.segments(), static_cast<int>(degraded.size()) + 1);
  ASSERT_FALSE(timeline.empty());
  const std::string joined = [&] {
    std::string all;
    for (const std::string& line : timeline) all += line + "\n";
    return all;
  }();
  EXPECT_NE(joined.find("escalated to dead"), std::string::npos) << joined;
  EXPECT_NE(joined.find("failover"), std::string::npos) << joined;

  // The degraded plan is remembered: the next run pays no new failover
  // and stays bit-exact (the dead link is simply never used again).
  StreamEngine::RunStats stats2;
  const std::vector<IntTensor> out2 =
      engine.run(std::span<const IntTensor>(images), &stats2);
  ASSERT_EQ(out2.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(out2[i], ref.run(images[i]));
  }
  EXPECT_EQ(stats2.link_failovers, 0u);
}

TEST(LinkChaos, CompiledPlanDrivesTheLinkedGraphThroughFailover) {
  // A compiled plan supplies the cut and the FIFO tables of the graph that
  // runs. The caller's plan may be gone once the engine is built: the
  // failover rebuild below must still wire the plan's FIFOs.
  const ChainNet net;
  auto plan = std::make_unique<CompiledPlan>(compile_plan(net.pipeline));
  plan->cut_after_nodes = kFourDfeCut;
  LinkedEngineOptions opts;
  opts.engine.plan = plan.get();
  opts.ack_timeout_us = 2'000;
  opts.max_retransmits = 3;
  opts.retransmit_backoff_us = 200;
  opts.engine.faults.add(FaultPlan::link_death(
      /*link=*/1, /*run=*/0, /*after_frames=*/6));
  LinkedEngine engine(net.pipeline, net.params, opts);
  plan.reset();
  EXPECT_EQ(engine.cut_after_nodes(), kFourDfeCut);

  const ReferenceExecutor ref(net.pipeline, net.params);
  const std::vector<IntTensor> images = net.batch(6, 37);
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> out =
      engine.run(std::span<const IntTensor>(images), &stats);
  ASSERT_EQ(out.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(images[i])) << "image " << i;
  }
  EXPECT_GE(stats.link_failovers, 1u);
  EXPECT_LT(engine.segments(), 4);
}

// ---- the partitioned chaos soak --------------------------------------------

TEST(LinkChaos, PartitionedChaosSoakStaysBitExactAcrossRuns) {
  const ChainNet net;
  // A genuine chaos draw, filtered to the link kinds: the soak exercises
  // outage windows, seeded frame corruption and permanent deaths on the
  // live MaxRing seam (kernel/stream kinds are soaked by test_fault's
  // server tests, which have a watchdog to rescue hangs).
  FaultPlan::ChaosOptions copts;
  copts.events = 10;
  copts.runs = 4;
  copts.include_link_faults = true;
  copts.links = 3;
  const FaultPlan drawn = FaultPlan::chaos(2027, copts);
  FaultPlan link_only;
  for (const FaultEvent& e : drawn.events) {
    if (is_link_kind(e.kind)) link_only.add(e);
  }
  ASSERT_FALSE(link_only.empty()) << "seed 2027 must draw link kinds";

  LinkedEngineOptions opts;
  opts.cut_after_nodes = kFourDfeCut;
  opts.ack_timeout_us = 3'000;
  opts.max_retransmits = 4;
  opts.retransmit_backoff_us = 200;
  opts.engine.faults = link_only;
  std::vector<std::string> timeline;
  opts.on_event = [&timeline](const std::string& what) {
    timeline.push_back(what);
  };
  LinkedEngine engine(net.pipeline, net.params, opts);

  const ReferenceExecutor ref(net.pipeline, net.params);
  const std::vector<IntTensor> images = net.batch(5, 55);
  std::vector<IntTensor> expected;
  expected.reserve(images.size());
  for (const IntTensor& img : images) expected.push_back(ref.run(img));

  StreamEngine::RunStats total{};
  for (int run = 0; run < 6; ++run) {
    StreamEngine::RunStats stats;
    const std::vector<IntTensor> out =
        engine.run(std::span<const IntTensor>(images), &stats);
    // Every run returns every image (zero lost) and every returned logit
    // vector is bit-exact: link faults are detectable, so they heal
    // (retransmit) or fail over (degraded plan) — never corrupt.
    ASSERT_EQ(out.size(), images.size()) << "run " << run;
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_EQ(out[i], expected[i]) << "run " << run << " image " << i;
    }
    total.link_frames += stats.link_frames;
    total.link_retransmits += stats.link_retransmits;
    total.link_failovers += stats.link_failovers;
  }
  EXPECT_GT(total.link_frames, 0u);
  // Whether the drawn plan forced retransmits, a failover, or both is
  // seed-dependent; the soak demands the faults actually fired.
  EXPECT_GT(total.link_retransmits + total.link_failovers, 0u)
      << "the drawn link faults must leave a trace";
  if (total.link_failovers > 0) {
    EXPECT_GE(engine.plan_failovers(), 1u);
    EXPECT_FALSE(timeline.empty());
  }
}

// ---- serving through a link death ------------------------------------------

TEST(LinkChaos, ServerServesThroughLinkDeathWithZeroLostRequests) {
  const ChainNet net;
  // Register the partitioned backend once (the registry is process-wide).
  if (backend_registry().find("linked-4dfe") == nullptr) {
    LinkedEngineOptions defaults;
    defaults.cut_after_nodes = kFourDfeCut;
    defaults.ack_timeout_us = 2'000;
    defaults.max_retransmits = 3;
    defaults.retransmit_backoff_us = 200;
    backend_registry().register_backend(
        make_linked_backend(defaults, "linked-4dfe"));
  }

  SessionConfig sc;
  sc.fast_estimate = true;
  sc.backend = "linked-4dfe";
  sc.engine.faults.add(FaultPlan::link_death(
      /*link=*/1, /*run=*/1, /*after_frames=*/4));
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 500;
  cfg.max_retries = 3;
  cfg.retry_backoff_us = 100;
  DfeServer server(net.spec, net.params, cfg, sc);

  const ReferenceExecutor ref(net.pipeline, net.params);
  const std::vector<IntTensor> images = net.batch(20, 91);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  for (const IntTensor& img : images) {
    futures.push_back(server.submit_async(img));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult res = futures[i].get();  // zero lost futures
    ASSERT_EQ(res.status, ServerStatus::kOk)
        << "request " << i << ": " << res.error
        << " — failover must mask the link death from clients";
    EXPECT_EQ(res.logits, ref.run(images[i])) << "request " << i;
  }
  server.stop();

  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.completed, images.size());
  EXPECT_EQ(s.errors, 0u);
  EXPECT_GE(s.plan_failovers, 1u);
  EXPECT_GT(s.link_frames, 0u);
  EXPECT_EQ(s.links, 3);
  EXPECT_EQ(s.link_health[1], 0.0) << "the dead link's health is surfaced";
  EXPECT_EQ(s.link_health[0], 1.0);
  const std::vector<std::string> events = server.metrics().events();
  const bool failover_logged =
      std::any_of(events.begin(), events.end(), [](const std::string& e) {
        return e.find(kPlanFailover) != std::string::npos;
      });
  EXPECT_TRUE(failover_logged) << "kPlanFailover must reach the timeline";
}

}  // namespace
}  // namespace qnn
