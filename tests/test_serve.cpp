#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "serve/load_generator.h"
#include "test_util.h"
#include "verify/report.h"

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

  [[nodiscard]] DfeServer server(ServerConfig cfg) const {
    return DfeServer(spec, params, cfg, session_config);
  }
  [[nodiscard]] ReferenceExecutor reference() const {
    return ReferenceExecutor(pipeline, params);
  }
};

TEST(Serve, RejectsMismatchedParametersWithDiagnosticCode) {
  // The server verifies the graph once up front (verify/graph_check.h):
  // a parameter set that does not match the network must fail with one
  // structured QNN-Dxxx error before any replica is compiled.
  TinyNet net;
  net.params.bnacts.pop_back();
  try {
    DfeServer server(net.spec, net.params, ServerConfig{},
                     net.session_config);
    FAIL() << "server construction over mismatched parameters must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QNN-D201"), std::string::npos)
        << e.what();
  }
}

TEST(Serve, SubmitMatchesReference) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 500;
  DfeServer server = net.server(cfg);
  const ReferenceExecutor ref = net.reference();
  Rng rng(61);
  for (int i = 0; i < 6; ++i) {
    const IntTensor img = testutil::random_image(12, 12, 3, rng);
    const InferenceResult res = server.submit(img);
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(img)) << i;
    EXPECT_GE(res.total_us, 0.0);
  }
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.submitted, 6u);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.rejected(), 0u);
  EXPECT_GT(s.values_streamed, 0u);
}

// Satellite: results are returned in submission order — every future must
// carry the logits of exactly the image it was submitted with, even when
// 8 client threads race into the micro-batcher.
TEST(Serve, ConcurrentSubmissionOrdering8Threads) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 4;
  cfg.max_batch = 8;
  cfg.batch_timeout_us = 1000;
  DfeServer server = net.server(cfg);
  const ReferenceExecutor ref = net.reference();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  std::vector<std::vector<IntTensor>> images(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(100 + static_cast<std::uint64_t>(t));
    for (int r = 0; r < kPerThread; ++r) {
      images[static_cast<std::size_t>(t)].push_back(
          testutil::random_image(12, 12, 3, rng));
    }
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
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      InferenceResult res =
          futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)]
              .get();
      ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
      EXPECT_EQ(res.logits,
                ref.run(images[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(r)]))
          << "thread " << t << " request " << r;
    }
  }
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Serve, DeadlineExpiryRejectsQueuedRequests) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;  // no coalescing: queued requests wait a full run each
  cfg.batch_timeout_us = 0;
  DfeServer server = net.server(cfg);
  Rng rng(62);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);

  // Occupy the single replica, then queue requests that can only expire:
  // a 1 us deadline cannot survive a multi-hundred-us inference ahead of it.
  std::future<InferenceResult> first = server.submit_async(img);
  std::vector<std::future<InferenceResult>> rushed;
  for (int i = 0; i < 8; ++i) {
    rushed.push_back(server.submit_async(img, /*deadline_us=*/1));
  }
  EXPECT_EQ(first.get().status, ServerStatus::kOk);
  int expired = 0;
  for (std::future<InferenceResult>& fut : rushed) {
    const InferenceResult res = fut.get();
    EXPECT_TRUE(res.status == ServerStatus::kOk ||
                res.status == ServerStatus::kDeadlineExceeded)
        << to_string(res.status);
    if (res.status == ServerStatus::kDeadlineExceeded) ++expired;
  }
  EXPECT_GE(expired, 1);
  EXPECT_GE(server.metrics().snapshot().rejected_deadline,
            static_cast<std::uint64_t>(expired));
}

TEST(Serve, QueueFullRejectsInsteadOfDeadlocking) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  cfg.queue_capacity = 2;
  DfeServer server = net.server(cfg);
  Rng rng(63);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);

  constexpr int kBurst = 24;
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(server.submit_async(img));
  }
  int ok = 0;
  int overloaded = 0;
  for (std::future<InferenceResult>& fut : futures) {
    const InferenceResult res = fut.get();  // must not hang
    if (res.status == ServerStatus::kOk) ++ok;
    if (res.status == ServerStatus::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(overloaded, 0);  // a 2-deep queue cannot absorb a 24 burst
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.rejected_overload, static_cast<std::uint64_t>(overloaded));
  EXPECT_LE(s.max_queue_depth, cfg.queue_capacity);
}

TEST(Serve, BatchTimeoutFlushesPartialBatch) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 64;           // far more than we submit...
  cfg.batch_timeout_us = 2000;  // ...so only the timeout can close a batch
  DfeServer server = net.server(cfg);
  Rng rng(64);
  const InferenceResult res =
      server.submit(testutil::random_image(12, 12, 3, rng));
  EXPECT_EQ(res.status, ServerStatus::kOk);
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_requests, 1u);
}

TEST(Serve, MicroBatchingCoalescesBursts) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 8;
  cfg.batch_timeout_us = 200000;  // generous window: the burst must coalesce
  DfeServer server = net.server(cfg);
  Rng rng(65);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        server.submit_async(testutil::random_image(12, 12, 3, rng)));
  }
  for (std::future<InferenceResult>& fut : futures) {
    EXPECT_EQ(fut.get().status, ServerStatus::kOk);
  }
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.batched_requests, 16u);
  EXPECT_LT(s.batches, 16u);  // at least some coalescing happened
  EXPECT_GT(s.mean_batch_size(), 1.0);
}

TEST(Serve, PoissonArrivalsDeterministicUnderSeed) {
  const auto a = poisson_arrivals_us(1000.0, 200, 7);
  const auto b = poisson_arrivals_us(1000.0, 200, 7);
  EXPECT_EQ(a, b);  // bit-identical schedule for one seed
  const auto c = poisson_arrivals_us(1000.0, 200, 8);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  // Mean inter-arrival gap of 200 samples at 1000 qps is 1000 us +- ~7%;
  // a factor-of-two band is far outside any statistical wobble.
  const double mean_gap = a.back() / 200.0;
  EXPECT_GT(mean_gap, 500.0);
  EXPECT_LT(mean_gap, 2000.0);
}

TEST(Serve, CleanShutdownDrainsInFlightRequests) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 500;
  DfeServer server = net.server(cfg);
  const ReferenceExecutor ref = net.reference();
  Rng rng(66);
  std::vector<IntTensor> images;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 12; ++i) {
    images.push_back(testutil::random_image(12, 12, 3, rng));
    futures.push_back(server.submit_async(images.back()));
  }
  server.stop();  // must drain, not abandon, the queue
  for (std::size_t i = 0; i < futures.size(); ++i) {
    InferenceResult res = futures[i].get();
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(images[i]));
  }
  // After stop() new submissions are turned away, and stop is idempotent.
  const InferenceResult late = server.submit(images.front());
  EXPECT_EQ(late.status, ServerStatus::kShutdown);
  server.stop();
  EXPECT_GE(server.metrics().snapshot().rejected_shutdown, 1u);
}

TEST(Serve, LoadGeneratorClosedLoopAccountsEveryRequest) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 8;
  cfg.batch_timeout_us = 500;
  DfeServer server = net.server(cfg);
  LoadGenerator gen(server, synthetic_batch(4, 12, 12, 3, 67));
  const LoadResult r = gen.closed_loop(/*clients=*/4,
                                       /*requests_per_client=*/8);
  EXPECT_EQ(r.offered, 32u);
  EXPECT_EQ(r.ok, 32u);  // ample queue: closed loop never overloads
  EXPECT_GT(r.achieved_qps, 0.0);
  EXPECT_GT(r.p50_us, 0.0);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_FALSE(r.str().empty());
}

TEST(Serve, LoadGeneratorOpenLoopAccountsEveryRequest) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 8;
  cfg.batch_timeout_us = 500;
  DfeServer server = net.server(cfg);
  LoadGenerator gen(server, synthetic_batch(4, 12, 12, 3, 68));
  const LoadResult r =
      gen.open_loop(/*rate_qps=*/2000.0, /*total_requests=*/40, /*seed=*/9);
  EXPECT_EQ(r.offered, 40u);
  EXPECT_EQ(r.ok + r.rejected_overload + r.rejected_deadline +
                r.rejected_shutdown + r.errors,
            40u);
  EXPECT_GT(r.ok, 0u);
}

TEST(Serve, MetricsReportMentionsEverything) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.replicas = 2;
  DfeServer server = net.server(cfg);
  LoadGenerator gen(server, synthetic_batch(2, 12, 12, 3, 69));
  (void)gen.closed_loop(2, 4);
  const std::string report = server.metrics_report();
  EXPECT_NE(report.find("requests:"), std::string::npos);
  EXPECT_NE(report.find("rejected:"), std::string::npos);
  EXPECT_NE(report.find("queue-wait"), std::string::npos);
  EXPECT_NE(report.find("end-to-end"), std::string::npos);
  EXPECT_NE(report.find("p50/p95/p99"), std::string::npos);
  EXPECT_NE(report.find("values streamed"), std::string::npos);
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_GT(server.metrics().end_to_end().percentile(50), 0.0);
  EXPECT_GE(server.metrics().end_to_end().percentile(99),
            server.metrics().end_to_end().percentile(50));
}

TEST(Serve, ServerValidatesConfigAndInput) {
  const TinyNet net;
  ServerConfig bad;
  bad.replicas = 0;
  EXPECT_THROW((void)net.server(bad), Error);
  DfeServer server = net.server(ServerConfig{});
  EXPECT_EQ(server.replicas(), 1);
  EXPECT_EQ(server.replica(0).spec().name, "tiny_12");
  EXPECT_THROW((void)server.replica(1), Error);
  EXPECT_THROW((void)server.submit(IntTensor(Shape{3, 3, 3})), Error);
}

TEST(Serve, MixedPoolConfigValidation) {
  // Every replica is built from the one SessionConfig; the shadow is the
  // golden model, not a pool member.
  const TinyNet net;
  // A linked cut the link check refuses fails the constructor with its
  // diagnostic: past the last node (D404), and across tiny's residual
  // skip 2 -> 6, where a link would have to carry two streams (D422).
  for (const auto& [cut, code] :
       {std::pair<int, const char*>{net.pipeline.size(), diag::kBadSegments},
        {3, diag::kCutCrossesSkip}}) {
    SessionConfig bad_cut = net.session_config;
    bad_cut.linked.emplace().cut_after_nodes = {cut};
    try {
      DfeServer server(net.spec, net.params, ServerConfig{}, bad_cut);
      FAIL() << "a cut after node " << cut << " must be rejected";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(code), std::string::npos) << what;
    }
  }
  for (const double fraction : {-0.1, 1.5}) {
    ServerConfig shadow;
    shadow.shadow_fraction = fraction;
    EXPECT_THROW((void)net.server(shadow), Error) << fraction;
  }
  ServerConfig mirrored;
  mirrored.shadow_fraction = 0.5;  // needs no shadow replica
  DfeServer ok = net.server(mirrored);
  Rng rng(75);
  EXPECT_EQ(ok.submit(testutil::random_image(12, 12, 3, rng)).status,
            ServerStatus::kOk);
}

// ---- reference shadow, restart ------------------------------------------

TEST(Serve, ShadowMirrorsAreComparedNeverReturned) {
  const TinyNet net;
  ServerConfig cfg;
  cfg.shadow_fraction = 1.0;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 200;
  DfeServer server = net.server(cfg);
  ASSERT_EQ(server.replicas(), 1);  // the shadow takes no replica slot
  Rng rng(73);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        server.submit_async(testutil::random_image(12, 12, 3, rng)));
  }
  for (std::future<InferenceResult>& fut : futures) {
    const InferenceResult res = fut.get();
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.replica, 0);
  }
  server.stop();  // drains the shadow queue before joining
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.shadow_runs + s.shadow_dropped, 10u);
  EXPECT_GT(s.shadow_runs, 0u);
  EXPECT_EQ(s.shadow_mismatches, 0u);  // the engine is bit-exact
  EXPECT_NE(server.metrics_report().find("shadow:"), std::string::npos);
}

TEST(Serve, RepeatedShadowMismatchesQuarantineThePrimary) {
  // A replica that computes WRONG answers is invisible to the failure-streak
  // path — only the reference shadow can see it. Replica 0 silently flips
  // one output bit on every run; the shadow pins the mismatches on it, and
  // after shadow_mismatch_after of them it is quarantined with a
  // kShadowQuarantine event.
  TinyNet net;
  FaultEvent flip = FaultPlan::bit_flip(
      net.pipeline.node(net.pipeline.size() - 1).name + "->output",
      /*run=*/0, /*value_index=*/0);
  flip.last_run = kFaultNever;  // every run, not just the first
  flip.replica = 0;
  net.session_config.engine.faults.add(flip);

  ServerConfig cfg;
  cfg.shadow_fraction = 1.0;
  cfg.shadow_mismatch_after = 3;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  DfeServer server = net.server(cfg);
  Rng rng(91);
  for (int i = 0; i < 8; ++i) {
    // Synchronous submits: every mirrored request is enqueued before
    // stop() drains the shadow queue, and no client is left waiting on a
    // quarantined replica.
    (void)server.submit(testutil::random_image(12, 12, 3, rng));
  }
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_GE(s.shadow_mismatches, 3u);
  EXPECT_GE(s.quarantines, 1u);
  bool logged = false;
  for (const std::string& event : server.metrics().events()) {
    logged = logged || event.find(kShadowQuarantine) != std::string::npos;
  }
  EXPECT_TRUE(logged) << "quarantine must be attributed to shadow evidence";
}

TEST(Serve, ShadowMismatchEscalationIsOffByDefault) {
  // shadow_mismatch_after = 0 (the default) keeps the old behavior:
  // mismatches are counted and logged, never escalated.
  TinyNet net;
  FaultEvent flip = FaultPlan::bit_flip(
      net.pipeline.node(net.pipeline.size() - 1).name + "->output",
      /*run=*/0, /*value_index=*/0);
  flip.last_run = kFaultNever;
  flip.replica = 0;
  net.session_config.engine.faults.add(flip);

  ServerConfig cfg;
  cfg.shadow_fraction = 1.0;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  DfeServer server = net.server(cfg);
  Rng rng(92);
  for (int i = 0; i < 6; ++i) {
    (void)server.submit(testutil::random_image(12, 12, 3, rng));
  }
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_GT(s.shadow_mismatches, 0u);
  EXPECT_EQ(s.quarantines, 0u);
}

// A fake engine whose first kBrokenSessions built instances fail every
// run — including quarantine probes — while later ones execute the scalar
// reference. Healing therefore *requires* the watchdog restart path:
// probes alone can never readmit a wedged session.
constexpr int kBrokenSessions = 2;

class FlakyEngine final : public SessionEngine {
 public:
  FlakyEngine(const Pipeline& pipeline, const NetworkParams& params,
              bool broken)
      : ref_(pipeline, params), broken_(broken) {}

  [[nodiscard]] std::vector<IntTensor> infer_batch(
      std::span<const IntTensor> images,
      StreamEngine::RunStats* stats) override {
    if (broken_) throw Error("flaky session: wedged board");
    if (stats != nullptr) *stats = StreamEngine::RunStats{};
    std::vector<IntTensor> out;
    out.reserve(images.size());
    for (const IntTensor& img : images) out.push_back(ref_.run(img));
    return out;
  }
  void cancel() override {}
  [[nodiscard]] std::string_view name() const override { return "flaky"; }

 private:
  ReferenceExecutor ref_;
  bool broken_;
};

TEST(Serve, WatchdogRestartRecompilesWedgedReplica) {
  TinyNet net;
  // Shared by the stored config's copies, so restarts count on.
  auto built = std::make_shared<std::atomic<int>>(0);
  net.session_config.make_engine = [built](const Pipeline& pipeline,
                                           const NetworkParams& params,
                                           const EngineOptions&) {
    return std::make_unique<FlakyEngine>(pipeline, params,
                                         built->fetch_add(1) < kBrokenSessions);
  };
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_timeout_us = 0;
  cfg.max_retries = 4;
  cfg.quarantine_after = 1;
  cfg.probation_probes = 1;
  cfg.probe_period_us = 500;
  cfg.restart_after = 2;
  DfeServer server = net.server(cfg);
  const ReferenceExecutor ref = net.reference();
  Rng rng(76);
  std::vector<IntTensor> images;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 4; ++i) {
    images.push_back(testutil::random_image(12, 12, 3, rng));
    futures.push_back(server.submit_async(images.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "self-healing stalled on request " << i;
    const InferenceResult res = futures[i].get();
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(images[i]));
  }
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.replica_restarts, 2u);  // both wedged sessions recompiled
  EXPECT_GE(s.readmissions, 1u);
  bool restart_logged = false;
  for (const std::string& e : server.metrics().events()) {
    restart_logged |= e.find(kReplicaRestarted) != std::string::npos;
  }
  EXPECT_TRUE(restart_logged);
  EXPECT_NE(server.metrics_report().find("[flaky]"), std::string::npos);
  EXPECT_EQ(server.replica_health(0), ReplicaHealth::kHealthy);
}

TEST(Serve, LatencyHistogramPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(50), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.record(100.0);   // bucket [64, 128)
  for (int i = 0; i < 10; ++i) h.record(5000.0);  // bucket [4096, 8192)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(50), 128.0);
  EXPECT_EQ(h.percentile(90), 128.0);
  EXPECT_EQ(h.percentile(99), 8192.0);
  EXPECT_NEAR(h.mean_us(), 0.9 * 100 + 0.1 * 5000, 1.0);
  EXPECT_NE(h.summary().find("p50/p95/p99"), std::string::npos);
}

TEST(Serve, RetryBackoffJitterSpreadsUnderAFixedSeed) {
  ServerConfig cfg;
  cfg.retry_backoff_us = 400;
  ASSERT_TRUE(cfg.retry_jitter);  // the default
  Rng rng(kRetryJitterSeed);
  std::vector<std::int64_t> delays;
  for (int draw = 0; draw < 24; ++draw) {
    const std::int64_t d = retry_backoff_delay_us(cfg, /*attempt=*/1, rng);
    // Every delay lands inside +-50% of the exponential base...
    EXPECT_GE(d, 200);
    EXPECT_LE(d, 600);
    delays.push_back(d);
  }
  // ...but a burst of requests failed together does NOT retry in lockstep.
  std::sort(delays.begin(), delays.end());
  const std::size_t distinct = static_cast<std::size_t>(
      std::unique(delays.begin(), delays.end()) - delays.begin());
  EXPECT_GE(distinct, 8u) << "24 draws should spread over the jitter window";

  // The exponential schedule still scales the window per attempt.
  for (int attempt = 2; attempt <= 4; ++attempt) {
    const std::int64_t base = cfg.retry_backoff_us << (attempt - 1);
    const std::int64_t d = retry_backoff_delay_us(cfg, attempt, rng);
    EXPECT_GE(d, base / 2);
    EXPECT_LE(d, base + base / 2);
  }

  // Same seed => the same delay sequence, replayable in a regression.
  Rng a(7);
  Rng b(7);
  for (int draw = 0; draw < 8; ++draw) {
    EXPECT_EQ(retry_backoff_delay_us(cfg, 1, a),
              retry_backoff_delay_us(cfg, 1, b));
  }

  // Jitter off: the exact legacy schedule.
  cfg.retry_jitter = false;
  EXPECT_EQ(retry_backoff_delay_us(cfg, 1, rng), 400);
  EXPECT_EQ(retry_backoff_delay_us(cfg, 3, rng), 1600);

  // max_retries has no upper bound, so every attempt count must give a
  // usable gate: never negative, never past the clock's range, and (with
  // jitter off) never shrinking as attempts grow. The default base used
  // to overflow at attempt 56 and shift out of range at 65.
  for (const bool jitter : {false, true}) {
    ServerConfig deep;
    deep.retry_jitter = jitter;
    Rng deep_rng(kRetryJitterSeed);
    std::int64_t previous = 0;
    for (int attempt = 1; attempt <= 200; ++attempt) {
      const std::int64_t d = retry_backoff_delay_us(deep, attempt, deep_rng);
      ASSERT_GE(d, 0) << "attempt " << attempt;
      const auto headroom =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::time_point::max() -
              std::chrono::steady_clock::now());
      ASSERT_LE(d, headroom.count()) << "attempt " << attempt;
      if (!jitter) {
        ASSERT_GE(d, previous) << "attempt " << attempt;
        previous = d;
      }
    }
    if (!jitter) {
      EXPECT_EQ(previous, kMaxRetryBackoffUs);
    }
  }
}

TEST(Serve, EventTimelineRingKeepsTheNewestEvents) {
  ServerMetrics m;
  for (int i = 0; i < 300; ++i) {
    m.log_event("event " + std::to_string(i));
  }
  const std::vector<std::string> events = m.events();
  // 256 ring slots plus the trailing drop marker.
  ASSERT_EQ(events.size(), 257u);
  // The ring overwrote the OLDEST 44 lines: the survivors are 44..299,
  // oldest first, and the newest event is always present.
  EXPECT_NE(events.front().find("event 44"), std::string::npos)
      << events.front();
  EXPECT_NE(events[255].find("event 299"), std::string::npos) << events[255];
  EXPECT_NE(events.back().find("44 older events dropped"), std::string::npos)
      << events.back();
  EXPECT_EQ(m.snapshot().events_dropped, 44u);
}

}  // namespace
}  // namespace qnn
