// Plan artifact tests: CompiledPlan serialization round-trips, fingerprint
// stability, the PlanCache hit/miss/corrupt-file contract, the autotuner's
// verify-before-run invariant, and end-to-end bit-exactness of tuned plans
// (including a server cold start that loads one from a warm cache).
#include "plan/compiled_plan.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "host/session.h"
#include "models/zoo.h"
#include "nn/params.h"
#include "nn/reference.h"
#include "plan/autotune.h"
#include "plan/cache.h"
#include "plan/json.h"
#include "serve/server.h"
#include "test_util.h"
#include "verify/graph_check.h"
#include "verify/plan_check.h"

namespace qnn {
namespace {

namespace fs = std::filesystem;

struct TinyNet {
  NetworkSpec spec = models::tiny(12, 4, 2);
  Pipeline pipeline = expand(spec);
  NetworkParams params = NetworkParams::random(pipeline, 60);
  SessionConfig session_config = [] {
    SessionConfig cfg;
    cfg.fast_estimate = true;
    return cfg;
  }();

  [[nodiscard]] std::vector<IntTensor> batch(int n, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<IntTensor> images;
    images.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      images.push_back(testutil::random_image(12, 12, 3, rng));
    }
    return images;
  }
};

/// Scratch directory under the test's working directory (the build tree);
/// wiped on construction so reruns start clean.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// ---- serialization --------------------------------------------------------

TEST(PlanJson, RoundTripIsByteIdentical) {
  const TinyNet net;
  EngineOptions opts;
  opts.burst = 128;
  opts.adaptive_burst = false;
  opts.pool_threads = 3;
  opts.pin_threads = true;
  opts.pin_offset = 2;
  const CompiledPlan plan =
      compile_plan(net.pipeline, opts, /*slo_us=*/1500);

  const std::string text = to_json(plan);
  const CompiledPlan reparsed = plan_from_json(text);
  // The contract plan/json.h documents: serialize(parse(serialize(p)))
  // is byte-identical, so cached files never churn on rewrite.
  EXPECT_EQ(to_json(reparsed), text);

  EXPECT_EQ(reparsed.key, plan.key);
  EXPECT_EQ(reparsed.model, plan.model);
  EXPECT_EQ(reparsed.burst, plan.burst);
  EXPECT_EQ(reparsed.adaptive_burst, plan.adaptive_burst);
  EXPECT_EQ(reparsed.pool_threads, plan.pool_threads);
  EXPECT_EQ(reparsed.pin_threads, plan.pin_threads);
  EXPECT_EQ(reparsed.pin_offset, plan.pin_offset);
  EXPECT_EQ(reparsed.cut_after_nodes, plan.cut_after_nodes);
  EXPECT_EQ(reparsed.fifos.streams.size(), plan.fifos.streams.size());
  EXPECT_EQ(reparsed.link_bursts.size(), plan.link_bursts.size());
}

TEST(PlanJson, RejectsMalformedAndWrongVersion) {
  const TinyNet net;
  CompiledPlan plan = compile_plan(net.pipeline);
  EXPECT_THROW((void)plan_from_json("not json at all"), Error);
  plan.version = kPlanFormatVersion + 1;
  EXPECT_THROW((void)plan_from_json(to_json(plan)), Error);
}

TEST(PlanJson, DeepArrayNestingIsRejectedNotStackOverflow) {
  // A cached plan is read from disk: 1 MB of '[' once overflowed the
  // recursive-descent parser's stack.
  EXPECT_THROW((void)plan_from_json(std::string(std::size_t{1} << 20, '[')),
               Error);
}

TEST(PlanJson, DeepObjectNestingIsRejectedNotStackOverflow) {
  std::string text;
  while (text.size() < (std::size_t{1} << 20)) text += "{\"a\":";
  EXPECT_THROW((void)plan_from_json(text), Error);
}

TEST(PlanJson, OversizedStringsAndValueCountsAreRejected) {
  EXPECT_THROW(
      (void)plan_from_json("\"" + std::string(std::size_t{1} << 20, 'x') +
                           "\""),
      Error);
  std::string many = "[";
  for (int i = 0; i < (1 << 21); ++i) many += "0,";
  many += "0]";
  EXPECT_THROW((void)plan_from_json(many), Error);
}

// ---- fingerprint ----------------------------------------------------------

TEST(PlanKeyTest, StableAcrossRunsAndLoweringCalls) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const PlanKey a = plan_key(expand(spec), /*slo_us=*/0);
  const PlanKey b = plan_key(expand(spec), /*slo_us=*/0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.machine, machine_signature());
}

TEST(PlanKeyTest, ChangesOnModelEditButNotOnRename) {
  const Pipeline base = expand(models::tiny(12, 4, 2));
  // Any structural edit — input size, class count — orphans a tuned plan.
  EXPECT_NE(model_hash(base), model_hash(expand(models::tiny(16, 4, 2))));
  EXPECT_NE(model_hash(base), model_hash(expand(models::tiny(12, 8, 2))));
  // A pure rename does not: node names are excluded from the hash.
  Pipeline renamed = base;
  renamed.nodes.front().name = "totally_different_name";
  EXPECT_EQ(model_hash(base), model_hash(renamed));
  // The SLO is part of the fingerprint string: a latency-tuned plan never
  // shadows a throughput-tuned one.
  EXPECT_NE(plan_key(base, 0).str(), plan_key(base, 2000).str());
}

// ---- cache ----------------------------------------------------------------

TEST(PlanCacheTest, StoreThenLoadHitsBitIdentically) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.store");
  EngineOptions opts;
  opts.burst = 256;
  const CompiledPlan plan = compile_plan(net.pipeline, opts);

  const PlanCache cache(dir.path.string());
  ASSERT_TRUE(cache.enabled());
  ASSERT_TRUE(cache.store(plan));
  const auto loaded = cache.load(plan.key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(to_json(*loaded), to_json(plan));
}

TEST(PlanCacheTest, MissesOnUnknownKeyCorruptFileAndDisabledCache) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.miss");
  const CompiledPlan plan = compile_plan(net.pipeline);
  const PlanCache cache(dir.path.string());
  ASSERT_TRUE(cache.store(plan));

  // Unknown key: never tuned this (model, slo) pair.
  EXPECT_FALSE(cache.load(plan_key(net.pipeline, /*slo_us=*/999)).has_value());

  // Corrupt file: a truncated or garbage entry is a MISS, never an error —
  // a broken cache must not break a cold start.
  {
    std::ofstream out(cache.path_for(plan.key), std::ios::trunc);
    out << "{\"version\": garbage";
  }
  EXPECT_FALSE(cache.load(plan.key).has_value());

  // Disabled cache (empty dir): lookups miss, stores are no-ops.
  const PlanCache disabled{std::string()};
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.store(plan));
  EXPECT_FALSE(disabled.load(plan.key).has_value());
}

// ---- autotuner ------------------------------------------------------------

TEST(Autotune, EveryCandidateIsVerifyCleanBeforeItMayRun) {
  const TinyNet net;
  AutotuneConfig config;
  config.live_calibration = false;  // oracle-only: fast and deterministic
  config.bursts = {64, 128};
  config.fifo_capacities = {0};
  const AutotuneResult result = autotune(net.pipeline, net.params, config);

  ASSERT_FALSE(result.candidates.empty());
  EXPECT_TRUE(result.candidates.front().verified);  // the default plan
  int verified = 0;
  for (const AutotuneCandidate& c : result.candidates) {
    if (!c.verified) continue;  // pruned by the analyzer, never executed
    ++verified;
    // Re-prove the invariant: the exact plan the candidate would run
    // passes verify/ with the plan attached (the QNN-D305 path included).
    EngineOptions opts;
    c.plan.apply_engine(opts);
    opts.plan = &c.plan;
    const Report report = verify_graph(net.pipeline, &net.params, opts);
    EXPECT_TRUE(report.ok()) << c.plan.fingerprint();
  }
  EXPECT_EQ(verified, result.evaluated);
  EXPECT_EQ(static_cast<int>(result.candidates.size()) - verified,
            result.pruned);
  // The winner never loses to the default on the deciding metric.
  EXPECT_GE(result.best_ips, result.default_ips);
  EXPECT_TRUE(result.best.matches(net.pipeline));
}

TEST(Autotune, TunedPlanIsBitExactAgainstDefaultOnTheZooModel) {
  const TinyNet net;
  AutotuneConfig config;
  config.live_calibration = false;
  config.bursts = {64, 256};
  config.fifo_capacities = {0, 4096};
  const AutotuneResult result = autotune(net.pipeline, net.params, config);

  SessionConfig default_cfg = net.session_config;
  default_cfg.plan = std::make_shared<const CompiledPlan>(
      result.candidates.front().plan);
  SessionConfig tuned_cfg = net.session_config;
  tuned_cfg.plan = std::make_shared<const CompiledPlan>(result.best);

  DfeSession default_session =
      DfeSession::compile(net.spec, net.params, default_cfg);
  DfeSession tuned_session =
      DfeSession::compile(net.spec, net.params, tuned_cfg);
  const ReferenceExecutor ref(net.pipeline, net.params);

  const std::vector<IntTensor> images = net.batch(6, 61);
  const std::vector<IntTensor> a = default_session.infer_batch(images);
  const std::vector<IntTensor> b = tuned_session.infer_batch(images);
  ASSERT_EQ(a.size(), images.size());
  ASSERT_EQ(b.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;
    EXPECT_EQ(a[i], ref.run(images[i])) << i;  // and both match golden
  }
}

// ---- server cold start ----------------------------------------------------

TEST(PlanCacheTest, ServerColdStartLoadsCachedPlanBitExactly) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.coldstart");
  // Persist a deliberately non-default plan, as qnn_tune would.
  EngineOptions opts;
  opts.burst = 256;
  opts.pool_threads = 2;
  const CompiledPlan tuned = compile_plan(net.pipeline, opts);
  ASSERT_TRUE(PlanCache(dir.path.string()).store(tuned));

  SessionConfig warm = net.session_config;
  warm.plan_cache_dir = dir.path.string();
  ServerConfig server_cfg;
  server_cfg.max_batch = 4;
  server_cfg.batch_timeout_us = 200;

  DfeServer warm_server(net.spec, net.params, server_cfg, warm);
  DfeServer cold_server(net.spec, net.params, server_cfg,
                        net.session_config);

  // The hit is observable: one kPlanCacheHit event carrying the
  // fingerprint, logged before any replica compiles.
  bool hit = false;
  for (const std::string& event : warm_server.metrics().events()) {
    if (event.find(kPlanCacheHit) != std::string::npos) {
      EXPECT_NE(event.find(tuned.fingerprint()), std::string::npos) << event;
      hit = true;
    }
  }
  EXPECT_TRUE(hit) << "cold start with a warm cache must log "
                   << kPlanCacheHit;
  for (const std::string& event : cold_server.metrics().events()) {
    EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
  }

  // And the loaded plan changes nothing observable: bit-exact vs the
  // default-plan server and the golden reference.
  const ReferenceExecutor ref(net.pipeline, net.params);
  for (const IntTensor& image : net.batch(5, 62)) {
    const InferenceResult a = warm_server.submit(image);
    const InferenceResult b = cold_server.submit(image);
    ASSERT_EQ(a.status, ServerStatus::kOk) << to_string(a.status);
    ASSERT_EQ(b.status, ServerStatus::kOk) << to_string(b.status);
    EXPECT_EQ(a.logits, b.logits);
    EXPECT_EQ(a.logits, ref.run(image));
  }
}

TEST(PlanCacheTest, ColdStartRejectsCachedPlanThatFailsTheLint) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.reject");
  // A plan that parses and carries the RIGHT fingerprint, but whose stream
  // table was skewed after tuning (burst above its own FIFO): the cache
  // layer cannot see this — only the verify/plan_check.h lint can.
  CompiledPlan skewed = compile_plan(net.pipeline);
  skewed.fifos.streams[0].burst = skewed.fifos.streams[0].capacity + 1;
  ASSERT_TRUE(PlanCache(dir.path.string()).store(skewed));

  // A session cold start treats the rejected plan as a MISS and derives a
  // fresh plan — it must not throw and must stay bit-exact.
  SessionConfig warm = net.session_config;
  warm.plan_cache_dir = dir.path.string();
  DfeSession session = DfeSession::compile(net.spec, net.params, warm);
  const ReferenceExecutor ref(net.pipeline, net.params);
  for (const IntTensor& image : net.batch(3, 64)) {
    EXPECT_EQ(session.infer(image), ref.run(image));
  }

  // A server cold start does the same, and the rejection is observable:
  // one plan-cache-rejected event (with the lint verdict), no cache-hit
  // event, and inference still works.
  DfeServer server(net.spec, net.params, ServerConfig{}, warm);
  bool rejected = false;
  for (const std::string& event : server.metrics().events()) {
    EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
    if (event.find("plan-cache-rejected") != std::string::npos) {
      EXPECT_NE(event.find(skewed.fingerprint()), std::string::npos) << event;
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "the lint rejection must be logged";
  const IntTensor image = net.batch(1, 65).front();
  const InferenceResult res = server.submit(image);
  ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
  EXPECT_EQ(res.logits, ref.run(image));
}

// Plan format v2 regression: a version-1 file — which still carries the
// "executor" field format 2 dropped — left behind in a cache directory is
// a loud MISS, never a mis-armed plan. The parser rejects it, the cache
// reports a miss, the D305 lint names the `version` field, and a server
// cold start neither throws nor logs a cache hit.
TEST(PlanCacheTest, VersionOnePlanWithExecutorFieldIsNeverArmed) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.v1");
  EngineOptions opts;
  opts.burst = 128;
  opts.pool_threads = 2;
  CompiledPlan v1 = compile_plan(net.pipeline, opts);
  v1.version = 1;
  std::string text = to_json(v1);
  const std::size_t at = text.find("  \"pool_threads\": ");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, "  \"executor\": \"pooled\",\n");
  const PlanCache cache(dir.path.string());
  {
    std::ofstream out(cache.path_for(v1.key), std::ios::trunc);
    out << text;
  }

  EXPECT_THROW((void)plan_from_json(text), Error);
  EXPECT_FALSE(cache.load(v1.key).has_value());

  Report lint;
  lint_plan(net.pipeline, v1, lint);
  EXPECT_FALSE(lint.ok());
  EXPECT_TRUE(lint.has(diag::kPlanMismatch)) << lint.str();
  EXPECT_NE(lint.str().find("field 'version'"), std::string::npos)
      << lint.str();

  SessionConfig warm = net.session_config;
  warm.plan_cache_dir = dir.path.string();
  std::unique_ptr<DfeServer> server;
  ASSERT_NO_THROW(server = std::make_unique<DfeServer>(
                      net.spec, net.params, ServerConfig{}, warm));
  for (const std::string& event : server->metrics().events()) {
    EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
  }
  const ReferenceExecutor ref(net.pipeline, net.params);
  const IntTensor image = net.batch(1, 66).front();
  const InferenceResult res = server->submit(image);
  ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
  EXPECT_EQ(res.logits, ref.run(image));
}

// Plan format v3 regression: a version-2 file still wires a ring inside
// every conv→BnAct pair the engine now fuses. Left behind in a cache
// directory it is a loud MISS: the parser rejects it, the cache reports a
// miss, the D305 lint names the `version` field, an engine armed with it
// directly refuses it (with or without the analyzer) instead of wiring a
// dangling ring, and a server cold start neither throws nor hits.
TEST(PlanCacheTest, VersionTwoPlanWithFusedPairRingsIsNeverArmed) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.v2");
  const std::size_t current = compile_plan(net.pipeline).fifos.streams.size();
  const auto into_bnact = [&](const PlannedStream& s) {
    return s.consumer >= 0 &&
           net.pipeline.node(s.consumer).kind == NodeKind::BnAct;
  };
  CompiledPlan v2 = compile_plan(net.pipeline);
  v2.version = 2;
  // What a version-2 compile planned: every edge, the five into tiny's
  // BnActs too.
  v2.fifos.streams = plan_edges(net.pipeline);
  ASSERT_EQ(v2.fifos.streams.size(), current + 5);
  ASSERT_NE(v2.fifos.find_edge(1, false), nullptr);  // conv_0->bnact_1

  // What a version-4 compile planned: a ring into each BnAct no conv
  // absorbed, the two after an Add.
  CompiledPlan v4 = compile_plan(net.pipeline);
  v4.version = 4;
  v4.fifos.streams.clear();
  for (const PlannedStream& s : plan_edges(net.pipeline)) {
    if (!into_bnact(s) ||
        net.pipeline.node(s.producer).kind == NodeKind::Add) {
      v4.fifos.streams.push_back(s);
    }
  }
  ASSERT_EQ(v4.fifos.streams.size(), current + 2);
  const PlannedStream* add_ring = v4.fifos.find_edge(7, false);
  ASSERT_NE(add_ring, nullptr);
  ASSERT_EQ(add_ring->name, "add_6->bnact_7");

  // What a version-3 compile planned for a fan-out: a fork trunk ring,
  // then one branch ring per consumer port.
  CompiledPlan v3 = compile_plan(net.pipeline);
  v3.version = 3;
  std::string v3_text = to_json(v3);
  const std::string fanned =
      "{\"name\": \"maxpool_2=>conv_3\", \"role\": \"direct\"";
  const std::size_t at = v3_text.find(fanned);
  ASSERT_NE(at, std::string::npos) << v3_text;
  v3_text.replace(
      at, fanned.size(),
      "{\"name\": \"maxpool_2->fork\", \"role\": \"trunk\", "
      "\"producer\": 2, \"consumer\": -1, \"skip\": false, "
      "\"capacity\": 512, \"bits\": 2, \"burst\": 48},\n"
      "    {\"name\": \"maxpool_2=>conv_3\", \"role\": \"branch\"");

  const PlanCache cache(dir.path.string());
  for (const auto& [old, text] :
       {std::pair<const CompiledPlan&, std::string>{v2, to_json(v2)},
        {v3, v3_text},
        {v4, to_json(v4)}}) {
    SCOPED_TRACE("version " + std::to_string(old.version));
    {
      std::ofstream out(cache.path_for(old.key), std::ios::trunc);
      out << text;
    }

    EXPECT_THROW((void)plan_from_json(text), Error);
    EXPECT_FALSE(cache.load(old.key).has_value());

    Report lint;
    lint_plan(net.pipeline, old, lint);
    EXPECT_FALSE(lint.ok());
    EXPECT_TRUE(lint.has(diag::kPlanMismatch)) << lint.str();
    EXPECT_NE(lint.str().find("field 'version'"), std::string::npos)
        << lint.str();

    // Unverified, the version-2 and version-4 rings into BnActs are
    // unwireable; the version-3 fan-out has no in-memory form left to arm.
    for (const bool verify : {true, false}) {
      if (!verify && old.version == 3) continue;
      EngineOptions armed;
      armed.plan = &old;
      armed.verify = verify;
      try {
        StreamEngine engine(net.pipeline, net.params, armed);
        FAIL() << "an engine must refuse a version-" << old.version
               << " plan (verify=" << verify << ")";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(verify ? "QNN-D305" : "is no task"),
                  std::string::npos)
            << what;
      }
    }

    SessionConfig warm = net.session_config;
    warm.plan_cache_dir = dir.path.string();
    std::unique_ptr<DfeServer> server;
    ASSERT_NO_THROW(server = std::make_unique<DfeServer>(
                        net.spec, net.params, ServerConfig{}, warm));
    for (const std::string& event : server->metrics().events()) {
      EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
    }
    const ReferenceExecutor ref(net.pipeline, net.params);
    const IntTensor image = net.batch(1, 67).front();
    const InferenceResult res = server->submit(image);
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(image));
  }
}

// Plan format v6 and v7 regressions: a version-5 file still carries the
// "skip_slack" field format 6 dropped (skip-path rings take the fixed
// kSkipSlack), and a version-6 file the "backend" field format 7 dropped
// (a session runs a StreamEngine, or a LinkedEngine when
// SessionConfig::linked is set). Left behind in a cache directory each is
// a loud MISS: the parser rejects it, the cache reports a miss, the D305
// lint names the `version` field, and a server cold start neither throws
// nor hits.
TEST(PlanCacheTest, VersionFivePlanWithSkipSlackFieldIsNeverArmed) {
  const TinyNet net;
  ASSERT_EQ(kPlanFormatVersion, 7);
  struct OldFile {
    int version;
    const char* before;  // the field the dropped one preceded
    const char* field;
  };
  for (const OldFile& old_file :
       {OldFile{5, "  \"burst\": ", "  \"skip_slack\": 64,\n"},
        OldFile{6, "  \"cut_after_nodes\": ",
                "  \"backend\": \"engine\",\n"}}) {
    SCOPED_TRACE("version " + std::to_string(old_file.version));
    const ScratchDir dir("test_plan_cache.v" +
                         std::to_string(old_file.version));
    CompiledPlan old = compile_plan(net.pipeline);
    old.version = old_file.version;
    std::string text = to_json(old);
    const std::size_t at = text.find(old_file.before);
    ASSERT_NE(at, std::string::npos);
    text.insert(at, old_file.field);
    const PlanCache cache(dir.path.string());
    {
      std::ofstream out(cache.path_for(old.key), std::ios::trunc);
      out << text;
    }

    EXPECT_THROW((void)plan_from_json(text), Error);
    EXPECT_FALSE(cache.load(old.key).has_value());

    Report lint;
    lint_plan(net.pipeline, old, lint);
    EXPECT_FALSE(lint.ok());
    EXPECT_TRUE(lint.has(diag::kPlanMismatch)) << lint.str();
    EXPECT_NE(lint.str().find("field 'version'"), std::string::npos)
        << lint.str();

    SessionConfig warm = net.session_config;
    warm.plan_cache_dir = dir.path.string();
    std::unique_ptr<DfeServer> server;
    ASSERT_NO_THROW(server = std::make_unique<DfeServer>(
                        net.spec, net.params, ServerConfig{}, warm));
    for (const std::string& event : server->metrics().events()) {
      EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
    }
    const ReferenceExecutor ref(net.pipeline, net.params);
    const IntTensor image = net.batch(1, 68).front();
    const InferenceResult res = server->submit(image);
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(image));
  }
}

}  // namespace
}  // namespace qnn
