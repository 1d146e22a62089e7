// Deterministic fault injection (fault/) and the serving stack's healing
// response (serve/): every failure mode the paper's platform meets as a
// flaky outage — wedged FIFO, crashed board, corrupted MaxRing — becomes
// a seeded, replayable test here.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/link.h"
#include "dataflow/linked_engine.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "partition/partitioner.h"
#include "serve/server.h"
#include "test_util.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

struct TinyNet {
  NetworkSpec spec = models::tiny(12, 4, 2);
  Pipeline pipeline = expand(spec);
  NetworkParams params = NetworkParams::random(pipeline, 60);
  SessionConfig session_config = [] {
    SessionConfig cfg;
    cfg.fast_estimate = true;
    return cfg;
  }();

  [[nodiscard]] std::string output_stream() const {
    return pipeline.node(pipeline.size() - 1).name + "->output";
  }
  [[nodiscard]] std::vector<IntTensor> batch(int n, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<IntTensor> images;
    images.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      images.push_back(testutil::random_image(12, 12, 3, rng));
    }
    return images;
  }
  [[nodiscard]] ReferenceExecutor reference() const {
    return ReferenceExecutor(pipeline, params);
  }
};

// ---- the fault plan itself ------------------------------------------------

TEST(Fault, ChaosPlansAreSeedDeterministic) {
  FaultPlan::ChaosOptions opts;
  opts.replicas = 4;
  opts.runs = 32;
  opts.events = 12;
  const FaultPlan a = FaultPlan::chaos(7, opts);
  const FaultPlan b = FaultPlan::chaos(7, opts);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), 12u);
  bool any_difference_from_reseed = false;
  const FaultPlan c = FaultPlan::chaos(8, opts);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].target_index, b.events[i].target_index) << i;
    EXPECT_EQ(a.events[i].replica, b.events[i].replica) << i;
    EXPECT_EQ(a.events[i].first_run, b.events[i].first_run) << i;
    EXPECT_EQ(a.events[i].after_steps, b.events[i].after_steps) << i;
    EXPECT_EQ(a.events[i].after_values, b.events[i].after_values) << i;
    if (a.events[i].kind != c.events[i].kind ||
        a.events[i].target_index != c.events[i].target_index ||
        a.events[i].first_run != c.events[i].first_run) {
      any_difference_from_reseed = true;
    }
    // Default chaos draws only *detectable* kinds, so soak tests can
    // assert bit-exactness of every run that completed.
    EXPECT_NE(a.events[i].kind, FaultKind::kStreamBitFlip) << i;
  }
  EXPECT_TRUE(any_difference_from_reseed);
}

/// The identity fields of one drawn chaos event.
struct PinnedEvent {
  FaultKind kind;
  int replica;
  std::uint64_t first_run;
  int target_index;
  int link;
};

void expect_plan_is(const FaultPlan& plan,
                    const std::vector<PinnedEvent>& expected) {
  ASSERT_EQ(plan.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    EXPECT_EQ(e.kind, expected[i].kind) << i;
    EXPECT_EQ(e.replica, expected[i].replica) << i;
    EXPECT_EQ(e.first_run, expected[i].first_run) << i;
    EXPECT_EQ(e.target_index, expected[i].target_index) << i;
    EXPECT_EQ(e.link, expected[i].link) << i;
  }
}

TEST(Fault, SeededChaosPlansArePinned) {
  // Literal plans, so a change to the drawable kinds or the draw order
  // shows up here rather than as a silently different soak.
  expect_plan_is(FaultPlan::chaos(404), {
      {FaultKind::kStreamStall, 0, 10, 55, 0},
      {FaultKind::kKernelHang, 0, 3, 59, 0},
      {FaultKind::kStreamStall, 0, 2, 2, 0},
      {FaultKind::kKernelHang, 0, 14, 22, 0},
  });

  FaultPlan::ChaosOptions opts;
  opts.events = 24;
  opts.include_link_faults = true;
  opts.links = 3;
  expect_plan_is(FaultPlan::chaos(404, opts), {
      {FaultKind::kLinkDeath, 0, 10, 0, 2},
      {FaultKind::kKernelException, 0, 12, 2, 0},
      {FaultKind::kKernelException, 0, 7, 61, 0},
      {FaultKind::kKernelHang, 0, 6, 59, 0},
      {FaultKind::kKernelException, 0, 0, 21, 0},
      {FaultKind::kLinkFrameCorrupt, 0, 7, 0, 2},
      {FaultKind::kLinkDeath, 0, 12, 0, 1},
      {FaultKind::kLinkFrameCorrupt, 0, 13, 0, 0},
      {FaultKind::kLinkOutage, 0, 13, 0, 0},
      {FaultKind::kKernelHang, 0, 11, 31, 0},
      {FaultKind::kLinkDeath, 0, 9, 0, 1},
      {FaultKind::kKernelHang, 0, 2, 22, 0},
      {FaultKind::kLinkOutage, 0, 15, 0, 1},
      {FaultKind::kKernelHang, 0, 9, 7, 0},
      {FaultKind::kStreamStall, 0, 8, 11, 0},
      {FaultKind::kStreamStall, 0, 3, 41, 0},
      {FaultKind::kLinkOutage, 0, 5, 0, 2},
      {FaultKind::kReplicaCrash, 0, 11, 0, 0},
      {FaultKind::kLinkOutage, 0, 6, 0, 2},
      {FaultKind::kReplicaCrash, 0, 4, 0, 0},
      {FaultKind::kKernelException, 0, 5, 34, 0},
      {FaultKind::kLinkOutage, 0, 4, 0, 0},
      {FaultKind::kKernelException, 0, 15, 48, 0},
      {FaultKind::kKernelException, 0, 0, 37, 0},
  });
}

TEST(Fault, EventRunWindowAndReplicaFilter) {
  FaultEvent e = FaultPlan::replica_crash(2, 3, 5);
  EXPECT_TRUE(e.matches(2, 3));
  EXPECT_TRUE(e.matches(2, 5));
  EXPECT_FALSE(e.matches(2, 6));
  EXPECT_FALSE(e.matches(1, 4));
  e.replica = -1;  // wildcard matches every replica
  EXPECT_TRUE(e.matches(7, 4));
}

// ---- engine-level injection ----------------------------------------------

TEST(Fault, StreamBitFlipCorruptsExactlyOneRunDeterministically) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(3, 70);

  EngineOptions opt;
  opt.faults.add(FaultPlan::bit_flip(net.output_stream(), /*run=*/0,
                                     /*value_index=*/5, /*mask=*/1));
  StreamEngine engine(net.pipeline, net.params, opt);
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> faulted = engine.run(batch, &stats);
  EXPECT_EQ(stats.faults_injected, 1u);

  // Silent corruption: the run completes but the logits differ from the
  // golden reference in exactly the flipped value.
  int mismatched_values = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const IntTensor golden = ref.run(batch[i]);
    for (std::int64_t v = 0; v < golden.size(); ++v) {
      mismatched_values += faulted[i][v] != golden[v];
    }
  }
  EXPECT_EQ(mismatched_values, 1);

  // Same plan, fresh engine: the identical corrupted output (determinism).
  StreamEngine replay(net.pipeline, net.params, opt);
  EXPECT_EQ(replay.run(batch), faulted);

  // Run 1 is outside the event window: the engine heals to bit-exact.
  const std::vector<IntTensor> clean = engine.run(batch, &stats);
  EXPECT_EQ(stats.faults_injected, 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(clean[i], ref.run(batch[i])) << i;
  }
}

TEST(Fault, StreamStallDelaysButDoesNotCorrupt) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(2, 71);
  EngineOptions opt;
  opt.faults.add(FaultPlan::stall(net.output_stream(), /*run=*/0,
                                  /*value_index=*/2, /*attempts=*/300));
  StreamEngine engine(net.pipeline, net.params, opt);
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> outs = engine.run(batch, &stats);
  EXPECT_EQ(stats.faults_injected, 1u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(outs[i], ref.run(batch[i])) << i;  // backpressure only
  }
}

TEST(Fault, KernelExceptionAbortsRunAndEngineStaysReusable) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(2, 72);
  for (const unsigned workers : {1u, 0u}) {
    EngineOptions opt;
    opt.pool_threads = workers;
    FaultEvent e = FaultPlan::kernel_throw("", /*run=*/0, /*step=*/0);
    e.target_index = 0;  // first registered kernel, whatever its name
    opt.faults.add(e);
    StreamEngine engine(net.pipeline, net.params, opt);
    try {
      (void)engine.run(batch);
      FAIL() << "run with an armed kernel exception must throw";
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find("injected"), std::string::npos)
          << err.what();
    }
    // The fault window has passed: the same engine heals completely.
    const std::vector<IntTensor> clean = engine.run(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(clean[i], ref.run(batch[i])) << i;
    }
  }
}

TEST(Fault, KernelHangIsUnwedgedByCancel) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(2, 73);
  EngineOptions opt;
  FaultEvent e = FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
  e.target_index = 0;
  opt.faults.add(e);
  StreamEngine engine(net.pipeline, net.params, opt);
  std::thread watchdog([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.cancel();
  });
  EXPECT_THROW((void)engine.run(batch), Error);
  watchdog.join();
  const std::vector<IntTensor> clean = engine.run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(clean[i], ref.run(batch[i])) << i;
  }
}

TEST(Fault, ReplicaCrashTargetsOnlyItsReplicaIdentity) {
  const TinyNet net;
  const std::vector<IntTensor> batch = net.batch(1, 74);
  FaultPlan plan;
  plan.add(FaultPlan::replica_crash(/*replica=*/1, /*first_run=*/0,
                                    /*last_run=*/1));
  EngineOptions healthy;
  healthy.faults = plan;
  healthy.fault_replica = 0;
  StreamEngine engine0(net.pipeline, net.params, healthy);
  EXPECT_NO_THROW((void)engine0.run(batch));

  EngineOptions doomed = healthy;
  doomed.fault_replica = 1;
  StreamEngine engine1(net.pipeline, net.params, doomed);
  EXPECT_THROW((void)engine1.run(batch), Error);  // run 0
  EXPECT_THROW((void)engine1.run(batch), Error);  // run 1
  EXPECT_NO_THROW((void)engine1.run(batch));      // past the window
}

// ---- link faults in the planner view -------------------------------------

TEST(Fault, DeadLinkMakesThePartitionInfeasible) {
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const PartitionResult healthy = partition_optimal(p);
  ASSERT_GT(healthy.num_dfes(), 1);
  PartitionConfig cfg;
  cfg.link_health = {0.0};  // first MaxRing hop is down
  const PartitionResult r = partition_optimal(p, cfg);
  EXPECT_FALSE(r.feasible());
  EXPECT_TRUE(std::isinf(r.link_slowdown));
}

// ---- live link fault kinds ------------------------------------------------

TEST(FaultLink, ChaosEmitsLinkKindsOnlyWhenAsked) {
  // The default draw must stay byte-identical to what existing soaks
  // replay: no link kinds unless include_link_faults is set.
  const FaultPlan plain = FaultPlan::chaos(404);
  for (const FaultEvent& e : plain.events) {
    EXPECT_NE(e.kind, FaultKind::kLinkOutage);
    EXPECT_NE(e.kind, FaultKind::kLinkFrameCorrupt);
    EXPECT_NE(e.kind, FaultKind::kLinkDeath);
  }

  FaultPlan::ChaosOptions opts;
  opts.events = 24;
  opts.include_link_faults = true;
  opts.links = 3;
  const FaultPlan linky = FaultPlan::chaos(404, opts);
  int link_events = 0;
  for (const FaultEvent& e : linky.events) {
    if (e.kind == FaultKind::kLinkOutage ||
        e.kind == FaultKind::kLinkFrameCorrupt ||
        e.kind == FaultKind::kLinkDeath) {
      ++link_events;
      EXPECT_GE(e.link, 0);
      EXPECT_LT(e.link, opts.links);
    }
  }
  EXPECT_GT(link_events, 0) << "24 draws over 7 kinds must hit a link kind";

  // Seeded replay: the linky plan is reproduced event for event.
  const FaultPlan again = FaultPlan::chaos(404, opts);
  ASSERT_EQ(linky.events.size(), again.events.size());
  for (std::size_t i = 0; i < linky.events.size(); ++i) {
    EXPECT_EQ(linky.events[i].kind, again.events[i].kind);
    EXPECT_EQ(linky.events[i].link, again.events[i].link);
    EXPECT_EQ(linky.events[i].first_run, again.events[i].first_run);
    EXPECT_EQ(linky.events[i].after_values, again.events[i].after_values);
    EXPECT_EQ(linky.events[i].outage_us, again.events[i].outage_us);
  }
}

TEST(FaultLink, DeadLinkFlipsCheckPartitionInfeasible) {
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const PartitionConfig healthy_cfg;
  const PartitionResult placement = partition_optimal(p, healthy_cfg);
  ASSERT_TRUE(placement.feasible());
  ASSERT_GT(placement.num_dfes(), 1);
  Report before;
  check_partition(p, placement, healthy_cfg, before);
  EXPECT_TRUE(before.ok()) << before.str();

  // Kill the first MaxRing hop: the same placement must now fail the
  // wire-rate proof with the exact oversubscription code.
  PartitionConfig derated = healthy_cfg;
  derated.link_health = {0.0};
  Report after;
  check_partition(p, placement, derated, after);
  EXPECT_FALSE(after.ok());
  EXPECT_TRUE(after.has(diag::kLinkOversubscribed)) << after.str();
}

TEST(FaultLink, LinkCapacityClampsOutOfRangeHealth) {
  PartitionConfig cfg;
  cfg.link_health = {-0.5, 1.7};
  EXPECT_EQ(cfg.link_capacity_mbps(0), 0.0);      // clamped up from negative
  EXPECT_EQ(cfg.link_capacity_mbps(1), 4000.0);   // clamped down to 1.0
  EXPECT_EQ(cfg.link_capacity_mbps(2), 4000.0);   // beyond the vector = 1.0
}

// ---- MaxRing link transport ------------------------------------------------

namespace {

/// Send `frames` payload frames through `link` the way a LinkPump does —
/// send, then take the delivered frame — until the link escalates;
/// returns the delivered payloads.
std::vector<std::vector<std::int32_t>> pump_link(MaxRingLink& link,
                                                 int frames) {
  std::vector<std::vector<std::int32_t>> got;
  std::vector<std::int32_t> payload;
  std::vector<std::int32_t> frame;
  try {
    for (int i = 0; i < frames; ++i) {
      payload.assign(16, i + 1);
      payload[0] = i;  // distinguishable first word
      link.send(payload);
      EXPECT_TRUE(link.recv(frame)) << "an acked frame is queued";
      got.push_back(frame);
    }
  } catch (const LinkDeadError&) {
    // The assertions decide whether death was expected.
  }
  return got;
}

}  // namespace

TEST(FaultLink, MaxRingDeliversInOrderWithoutRetransmits) {
  LinkConfig cfg;
  cfg.pace = false;
  MaxRingLink link(cfg);
  const auto got = pump_link(link, 12);
  ASSERT_EQ(got.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)][0], i);
    EXPECT_EQ(got[static_cast<std::size_t>(i)][15], i + 1);
  }
  const LinkStats s = link.stats();
  EXPECT_EQ(s.frames_sent, 12u);
  EXPECT_EQ(s.frames_delivered, 12u);
  EXPECT_EQ(s.transmissions, 12u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_FALSE(s.dead);
  std::vector<std::int32_t> none;
  EXPECT_FALSE(link.recv(none)) << "every delivered frame was taken";
}

TEST(FaultLink, MaxRingHealsSeededCorruptionBitExact) {
  LinkConfig cfg;
  cfg.pace = false;
  MaxRingLink link(cfg);
  LinkFaultSite site;
  site.corrupt_per_million = 300'000;  // ~30% of transmissions arrive broken
  site.rng = Rng(99);
  site.armed = true;
  link.set_fault(&site);
  const auto got = pump_link(link, 24);
  ASSERT_EQ(got.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)][0], i) << "payload healed";
    EXPECT_EQ(got[static_cast<std::size_t>(i)][8], i + 1);
  }
  const LinkStats s = link.stats();
  EXPECT_GT(s.checksum_drops, 0u) << "the corruption rate must have fired";
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_FALSE(s.dead);
}

TEST(FaultLink, FrameChecksumCatchesEveryOneBitFlipAndLengthChange) {
  // Payload lengths covering every lane tail (0..9) and a full 256-value
  // frame either side of a lane boundary: flipping any one bit of any
  // word, or of the sequence number, changes the checksum, and so does
  // appending a zero word (the length is folded in).
  Rng rng(0xc4ec);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{4}, std::size_t{5},
                                std::size_t{6}, std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{255},
                                std::size_t{256}}) {
    std::vector<std::int32_t> payload(len);
    for (auto& v : payload) v = static_cast<std::int32_t>(rng.next_u64());
    const std::uint64_t seq = rng.next_u64();
    const std::uint64_t sum = link_frame_checksum(seq, payload);
    for (std::size_t i = 0; i < len; ++i) {
      for (int b = 0; b < 32; ++b) {
        std::vector<std::int32_t> flipped = payload;
        flipped[i] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(flipped[i]) ^ (1U << b));
        ASSERT_NE(link_frame_checksum(seq, flipped), sum)
            << "len=" << len << " word=" << i << " bit=" << b;
      }
    }
    for (int b = 0; b < 64; ++b) {
      ASSERT_NE(link_frame_checksum(seq ^ (std::uint64_t{1} << b), payload),
                sum)
          << "len=" << len << " seq bit=" << b;
    }
    std::vector<std::int32_t> longer = payload;
    longer.push_back(0);
    EXPECT_NE(link_frame_checksum(seq, longer), sum) << "len=" << len;
  }
}

TEST(FaultLink, MaxRingRidesOutATransientOutage) {
  LinkConfig cfg;
  cfg.pace = false;
  cfg.ack_timeout_us = 2'000;
  cfg.retransmit_backoff_us = 500;
  MaxRingLink link(cfg);
  LinkFaultSite site;
  site.outage_from = 3;      // wire goes dark at the 4th transmission...
  site.outage_us = 4'000;    // ...for 4ms — inside the retransmit budget
  site.armed = true;
  link.set_fault(&site);
  const auto got = pump_link(link, 8);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)][0], i);
  }
  const LinkStats s = link.stats();
  EXPECT_GT(s.outage_drops, 0u);
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_FALSE(s.dead) << "a transient outage must not escalate";
}

TEST(FaultLink, MaxRingEscalatesPermanentDeathOnBothSides) {
  LinkConfig cfg;
  cfg.pace = false;
  cfg.ack_timeout_us = 1'000;
  cfg.max_retransmits = 2;
  cfg.retransmit_backoff_us = 100;
  MaxRingLink link(cfg);
  LinkFaultSite site;
  site.death_from = 4;  // the 5th transmission and everything after is lost
  site.armed = true;
  link.set_fault(&site);
  const auto got = pump_link(link, 10);
  EXPECT_EQ(got.size(), 4u) << "frames before the death still delivered";
  const LinkStats s = link.stats();
  EXPECT_TRUE(s.dead);
  EXPECT_TRUE(link.dead());
  EXPECT_GE(s.retransmits, 2u) << "the full budget is spent before escalating";
  // Both ends see the death: the sender refuses further frames at once,
  // and the receiving side never sees the lost frame.
  std::vector<std::int32_t> payload(16, 7);
  EXPECT_THROW(link.send(payload), LinkDeadError);
  std::vector<std::int32_t> frame;
  EXPECT_FALSE(link.recv(frame));
  EXPECT_EQ(link.stats().transmissions, s.transmissions)
      << "a dead link transmits nothing more";
}

TEST(FaultLink, MaxRingCancelCutsARetransmitWaitShort) {
  // Under a fault the pump's retransmit waits hold its worker; the cancel
  // flag (the engine's abort flag) must end them without spending the
  // budget, and as a plain Error, not a failover trigger.
  LinkConfig cfg;
  cfg.pace = false;
  cfg.ack_timeout_us = 10'000'000;  // an uncancelled wait would hang the test
  MaxRingLink link(cfg);
  LinkFaultSite site;
  site.death_from = 0;
  site.armed = true;
  link.set_fault(&site);
  std::atomic<bool> cancel{false};
  link.set_cancel(&cancel);
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancel.store(true);
  });
  std::vector<std::int32_t> payload(8, 1);
  bool dead_error = false;
  bool plain_error = false;
  try {
    link.send(payload);
  } catch (const LinkDeadError&) {
    dead_error = true;
  } catch (const Error&) {
    plain_error = true;
  }
  canceller.join();
  EXPECT_FALSE(dead_error);
  EXPECT_TRUE(plain_error);
  EXPECT_FALSE(link.dead());
}

TEST(FaultLink, MaxRingResetStartsAFreshSequence) {
  LinkConfig cfg;
  cfg.pace = false;
  MaxRingLink link(cfg);
  (void)pump_link(link, 3);
  link.reset();
  EXPECT_EQ(link.stats().frames_sent, 0u);
  const auto got = pump_link(link, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1][0], 1);
  EXPECT_EQ(link.stats().frames_delivered, 2u);
}

TEST(FaultLink, LinkedEngineHealsSeededLinkChaosMidRunBitExact) {
  // The partitioned soak in miniature: a two-segment chain whose only
  // MaxRing link suffers a seeded outage window AND a seeded corruption
  // rate mid-run. Every output must stay bit-exact against the scalar
  // reference with no failover — transient faults heal inside the link.
  const TinyNet net;
  LinkedEngineOptions opts;
  opts.cut_after_nodes = {1};
  opts.ack_timeout_us = 10'000;
  opts.retransmit_backoff_us = 300;
  opts.engine.faults.add(FaultPlan::link_outage(
      /*link=*/0, /*run=*/1, /*after_frames=*/4, /*outage_us=*/3'000));
  opts.engine.faults.add(
      FaultPlan::link_frame_corrupt(/*link=*/0, /*per_million=*/150'000));
  LinkedEngine engine(net.pipeline, net.params, opts);
  ASSERT_EQ(engine.links(), 1);

  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(4, 17);
  StreamEngine::RunStats total{};
  for (int run = 0; run < 3; ++run) {
    StreamEngine::RunStats stats;
    const std::vector<IntTensor> out =
        engine.run(std::span<const IntTensor>(images), &stats);
    ASSERT_EQ(out.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_EQ(out[i], ref.run(images[i])) << "run " << run << " image " << i;
    }
    total.link_frames += stats.link_frames;
    total.link_retransmits += stats.link_retransmits;
    total.link_failovers += stats.link_failovers;
  }
  EXPECT_GT(total.link_frames, 0u);
  EXPECT_GT(total.link_retransmits, 0u)
      << "the corruption rate and outage must exercise the retransmit path";
  EXPECT_EQ(total.link_failovers, 0u);
  EXPECT_TRUE(engine.link_healthy(0));
}

// ---- serving-layer healing -----------------------------------------------

TEST(FaultServe, BatchIsolationSavesTheInnocentRequests) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  FaultEvent e = FaultPlan::kernel_throw("", /*run=*/0, /*step=*/0);
  e.target_index = 0;
  sc.engine.faults.add(e);
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 100'000;  // generous: the burst must coalesce
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(4, 80);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  for (const IntTensor& img : images) {
    futures.push_back(server.submit_async(img));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult res = futures[i].get();
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(images[i])) << i;
  }
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.isolation_reruns, 4u);  // whole batch re-ran solo
  EXPECT_EQ(s.retries, 0u);           // isolation, not requeue, healed it
}

TEST(FaultServe, WatchdogBudgetCancelsHungReplicaAndRetriesElsewhere) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  FaultEvent hang = FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
  hang.target_index = 0;
  hang.replica = 0;
  hang.last_run = 1'000'000;  // replica 0 is permanently wedged
  sc.engine.faults.add(hang);
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 2;
  cfg.batch_timeout_us = 200;
  cfg.run_budget_us = 60'000;
  cfg.watchdog_period_us = 1'000;
  // Replica 1 drains the queue while replica 0 sits in its first 60 ms
  // budget window, so a wedged replica gets exactly one observable
  // failure here — quarantine on it.
  cfg.quarantine_after = 1;
  cfg.retry_backoff_us = 100;
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(8, 81);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  for (const IntTensor& img : images) {
    futures.push_back(server.submit_async(img));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult res = futures[i].get();
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(images[i])) << i;
    EXPECT_EQ(res.replica, 1) << "only replica 1 can complete a run";
  }
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_GE(s.watchdog_budget_cancels, 1u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_GE(s.quarantines, 1u);
  EXPECT_EQ(server.replica_health(0), ReplicaHealth::kQuarantined);
  EXPECT_EQ(server.replica_health(1), ReplicaHealth::kHealthy);
}

TEST(FaultServe, MidRunDeadlineIsEnforcedByTheWatchdog) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  FaultEvent hang = FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
  hang.target_index = 0;
  sc.engine.faults.add(hang);  // only run 0 wedges
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  cfg.run_budget_us = 0;  // no budget: only the deadline can cancel
  cfg.watchdog_period_us = 1'000;
  DfeServer server(net.spec, net.params, cfg, sc);
  const std::vector<IntTensor> images = net.batch(2, 82);
  const InferenceResult stuck =
      server.submit(images[0], /*deadline_us=*/30'000);
  EXPECT_EQ(stuck.status, ServerStatus::kDeadlineExceeded)
      << to_string(stuck.status);
  EXPECT_GE(server.metrics().snapshot().watchdog_deadline_cancels, 1u);
  // The hang window has passed: the same replica serves again.
  const InferenceResult healed = server.submit(images[1]);
  EXPECT_EQ(healed.status, ServerStatus::kOk) << healed.error;
}

TEST(FaultServe, QuarantineProbesAndReadmitsAFlakyReplica) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  // Runs 0..2 throw; everything after (including probes) is clean.
  FaultEvent e = FaultPlan::kernel_throw("", /*run=*/0, /*step=*/0);
  e.target_index = 0;
  e.last_run = 2;
  sc.engine.faults.add(e);
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  cfg.max_retries = 2;
  cfg.retry_backoff_us = 100;
  cfg.quarantine_after = 3;
  cfg.probation_probes = 2;
  cfg.probe_period_us = 1'000;
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(2, 83);

  // 1 + 2 retries all land in the faulty run window: the request errors
  // and the third consecutive failure quarantines the replica.
  const InferenceResult doomed = server.submit(images[0]);
  EXPECT_EQ(doomed.status, ServerStatus::kError) << to_string(doomed.status);
  EXPECT_EQ(doomed.retries, 2);
  EXPECT_NE(doomed.error.find("injected"), std::string::npos) << doomed.error;

  // Probes run clean now: quarantined -> probation -> readmitted.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (server.replica_health(0) != ReplicaHealth::kHealthy &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.replica_health(0), ReplicaHealth::kHealthy);

  const InferenceResult healed = server.submit(images[1]);
  ASSERT_EQ(healed.status, ServerStatus::kOk) << healed.error;
  EXPECT_EQ(healed.logits, ref.run(images[1]));
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_GE(s.quarantines, 1u);
  EXPECT_GE(s.probes, 2u);
  EXPECT_GE(s.readmissions, 1u);
  // Brownout tracked the quarantine window: entered with it, cleared by
  // the readmission.
  EXPECT_GE(s.brownout_entries, 1u);
  EXPECT_FALSE(s.brownout_active);
  EXPECT_FALSE(server.metrics().events().empty());
}

// The acceptance gate of the chaos subsystem: a seeded storm of
// detectable faults across a 4-replica farm, and still every future
// resolves, nothing is lost or double-answered, and every kOk result is
// bit-exact against the fault-free reference.
TEST(FaultServe, ChaosSoakLosesNothingAndStaysBitExact) {
  const TinyNet net;
  FaultPlan::ChaosOptions copts;
  copts.replicas = 4;
  copts.runs = 10;
  copts.events = 6;
  SessionConfig sc = net.session_config;
  sc.engine.faults = FaultPlan::chaos(2026, copts);
  ServerConfig cfg;
  cfg.replicas = 4;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 300;
  cfg.run_budget_us = 150'000;  // rescue hangs even under sanitizers
  cfg.watchdog_period_us = 1'000;
  cfg.max_retries = 3;
  cfg.retry_backoff_us = 100;
  cfg.quarantine_after = 2;
  cfg.probation_probes = 1;
  cfg.probe_period_us = 1'000;
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 18;
  std::vector<std::vector<IntTensor>> images(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    images[static_cast<std::size_t>(t)] =
        net.batch(kPerThread, 90 + static_cast<std::uint64_t>(t));
  }
  std::vector<std::vector<std::future<InferenceResult>>> futures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        futures[static_cast<std::size_t>(t)].push_back(server.submit_async(
            images[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)]));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int ok = 0;
  int errors = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      InferenceResult res =
          futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)]
              .get();  // every future must resolve: nothing lost
      if (res.status == ServerStatus::kOk) {
        ++ok;
        // Chaos draws only detectable faults, so completed results carry
        // no silent corruption.
        EXPECT_EQ(res.logits,
                  ref.run(images[static_cast<std::size_t>(t)]
                                [static_cast<std::size_t>(r)]))
            << "thread " << t << " request " << r;
      } else {
        ASSERT_EQ(res.status, ServerStatus::kError) << to_string(res.status);
        ++errors;
      }
    }
  }
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(s.submitted, kTotal);
  EXPECT_EQ(static_cast<std::uint64_t>(ok + errors), kTotal);
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.errors, static_cast<std::uint64_t>(errors));
  EXPECT_GT(ok, kThreads * kPerThread / 2)
      << "healing should complete most of the load";
}

}  // namespace
}  // namespace qnn
