// Session conformance: both kinds of DfeSession — one StreamEngine, and a
// LinkedEngine chain (SessionConfig::linked) — must be bit-exact against
// the scalar reference on the topology zoo, and must survive a cancelled
// run.
#include "host/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "fault/fault.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"

namespace qnn {
namespace {

/// Session config of the parameter's kind. "linked" takes `cut` (empty =
/// the partitioner's choice).
SessionConfig config_for(const std::string& kind, std::vector<int> cut = {}) {
  SessionConfig cfg;
  cfg.fast_estimate = true;
  if (kind == "linked") cfg.linked.emplace().cut_after_nodes = std::move(cut);
  return cfg;
}

class SessionConformance : public ::testing::TestWithParam<const char*> {};

TEST_P(SessionConformance, BitExactOnTopologyZoo) {
  const std::string kind = GetParam();
  // vgg_like(32, ...) expands to a 20-node chain: the cut after each of
  // its first three maxpools is a chain cut, so the linked session runs
  // it as four segments over three MaxRing links.
  const std::vector<int> vgg_cut = {4, 9, 14};
  for (const NetworkSpec& spec :
       {models::tiny(12, 4, 2), models::tiny(16, 6, 4),
        models::vgg_like(32, 10, 2)}) {
    const Pipeline p = expand(spec);
    const NetworkParams params = NetworkParams::random(p, 91);
    const ReferenceExecutor ref(p, params);
    const bool vgg = spec.name.starts_with("vgg");
    DfeSession session = DfeSession::compile(
        spec, params, config_for(kind, vgg ? vgg_cut : std::vector<int>{}));
    EXPECT_EQ(session.kind(), kind);
    const auto batch =
        synthetic_batch(2, p.input.h, p.input.w, p.input.c, 92);
    StreamEngine::RunStats stats;
    const std::vector<IntTensor> out = session.infer_batch(batch, &stats);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(out[i], ref.run(batch[i]))
          << kind << " diverges on " << p.name << " image " << i;
    }
    if (kind == "linked" && vgg) {
      EXPECT_GT(stats.link_frames, 0u) << "the cut must carry the streams";
    }
    // classify() agrees with the reference argmax.
    EXPECT_EQ(session.classify(batch[0]),
              ReferenceExecutor::argmax(ref.run(batch[0])));
  }
}

TEST_P(SessionConformance, ReportNamesItsKind) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const DfeSession session = DfeSession::compile(
      spec, NetworkParams::random(p, 99), config_for(GetParam()));
  EXPECT_NE(session.report().find("runs on: " + std::string(GetParam())),
            std::string::npos)
      << session.report();
}

TEST_P(SessionConformance, CancelAbortsAndSessionRecovers) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 100);
  const ReferenceExecutor ref(p, params);
  // Run 0 wedges a kernel until someone cancels it; run 1 is clean.
  SessionConfig cfg = config_for(GetParam());
  cfg.engine.faults.add(FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0));
  DfeSession session = DfeSession::compile(spec, params, cfg);
  std::thread canceller([&] {
    // The engine re-arms its abort flag at run start, so wait until the
    // hung run is clearly in flight before cancelling.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    session.cancel();
  });
  const auto batch = synthetic_batch(2, 12, 12, 3, 101);
  EXPECT_THROW((void)session.infer_batch(batch), Error);
  canceller.join();
  // The SAME session re-arms and runs bit-exact after the abort.
  const std::vector<IntTensor> out = session.infer_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(batch[i])) << "image " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SessionConformance,
                         ::testing::Values("engine", "linked"));

}  // namespace
}  // namespace qnn
