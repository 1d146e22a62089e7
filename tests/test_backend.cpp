// Backend seam tests: registry behavior, the QNN-D5xx capability checks,
// and the conformance suite — every builtin backend must produce
// bit-exact results against the scalar reference on the topology zoo.
#include "backend/backend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "backend/builtin.h"
#include "fault/fault.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "verify/backend_check.h"
#include "verify/report.h"
#include "test_util.h"

namespace qnn {
namespace {

// ---- registry ----------------------------------------------------------

TEST(BackendRegistry, BuiltinsRegisterOnFirstUse) {
  BackendRegistry& reg = backend_registry();
  EXPECT_GE(reg.size(), 1);
  ASSERT_NE(reg.find("engine"), nullptr);
  EXPECT_EQ(reg.all().front()->name(), "engine");
  EXPECT_EQ(reg.find("no-such-backend"), nullptr);
}

TEST(BackendRegistry, AtThrowsListingNames) {
  try {
    (void)backend_registry().at("bogus");
    FAIL() << "at() must throw for unknown backends";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("engine"), std::string::npos);
  }
}

TEST(BackendRegistry, AtSuggestsTheNearMissForPlausibleTypos) {
  // A one- or two-edit typo (case-insensitive) gets a concrete suggestion
  // alongside the registered-names list.
  try {
    (void)backend_registry().at("enigne");
    FAIL() << "at() must throw for unknown backends";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean \"engine\"?"), std::string::npos)
        << what;
  }
  try {
    (void)backend_registry().at("Engine");
    FAIL() << "at() is case-sensitive and must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean \"engine\"?"), std::string::npos)
        << what;
  }
  // Nothing plausible: list the names, suggest nothing.
  try {
    (void)backend_registry().at("bogus");
    FAIL() << "at() must throw for unknown backends";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(BackendRegistry, DuplicateNameRejected) {
  EXPECT_THROW(backend_registry().register_backend(make_engine_backend()),
               Error);
}

TEST(BackendRegistry, InfoDescribesCostAndDevices) {
  for (Backend* b : backend_registry().all()) {
    EXPECT_FALSE(b->info().name.empty());
    EXPECT_FALSE(b->info().description.empty());
    EXPECT_GE(b->info().max_devices, 1);
    EXPECT_GE(b->device_count(), 0);
  }
}

// ---- QNN-D5xx capability checks ---------------------------------------

/// A backend with no devices and no supported ops, for the D5xx paths.
class BrokenBackend final : public Backend {
 public:
  [[nodiscard]] const BackendInfo& info() const override {
    static const BackendInfo kInfo{"broken", "test-only: supports nothing",
                                   0};
    return kInfo;
  }
  [[nodiscard]] int device_count() const override { return 0; }
  [[nodiscard]] bool supports_op(const Node&) const override {
    return false;
  }
  [[nodiscard]] std::unique_ptr<BackendSession> compile(
      const Pipeline&, NetworkParams,
      const EngineOptions&) const override {
    throw Error("broken backend cannot compile");
  }
};

TEST(BackendCheck, NoDevicesIsD502) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const BrokenBackend broken;
  const Report r = verify_backend(p, broken);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(diag::kBackendNoDevices));
}

TEST(BackendCheck, UnsupportedOpIsD501PerNode) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const BrokenBackend broken;
  const Report r = verify_backend(p, broken);
  EXPECT_EQ(r.count(diag::kBackendUnsupportedOp), p.size());  // every node
}

TEST(BackendCheck, BuiltinsSupportTheZoo) {
  for (const NetworkSpec& spec :
       {models::tiny(12, 4, 2), models::vgg_like(32, 10, 2)}) {
    const Pipeline p = expand(spec);
    EXPECT_TRUE(verify_backend(p, backend_registry().at("engine")).ok())
        << "engine rejects " << p.name;
  }
}

TEST(BackendCheck, EngineRejectsWideConvInputs) {
  // The engine's conv takes 1-2-bit inputs as bit-planes and 3-16-bit
  // inputs as one or two byte-planes; beyond 16 bits it refuses (mirrors
  // the D105 shape check).
  Node conv;
  conv.kind = NodeKind::Conv;
  conv.in_bits = 20;
  conv.out_bits = 2;
  const Backend& engine = backend_registry().at("engine");
  EXPECT_FALSE(engine.supports_op(conv));
  conv.in_bits = 16;  // the widest input the byte datapath takes
  EXPECT_TRUE(engine.supports_op(conv));
}

// ---- conformance: every builtin bit-exact vs the scalar reference ------

class BackendConformance
    : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendConformance, BitExactOnTopologyZoo) {
  Backend& backend = backend_registry().at(GetParam());
  for (const NetworkSpec& spec :
       {models::tiny(12, 4, 2), models::tiny(16, 6, 4),
        models::vgg_like(32, 10, 2)}) {
    const Pipeline p = expand(spec);
    NetworkParams params = NetworkParams::random(p, 91);
    const ReferenceExecutor ref(p, params);
    const std::unique_ptr<BackendSession> session =
        backend.compile(p, params);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(&session->backend(), &backend);
    const auto batch =
        synthetic_batch(2, p.input.h, p.input.w, p.input.c, 92);
    StreamEngine::RunStats stats;
    const std::vector<IntTensor> out =
        session->infer_batch(batch, &stats);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(out[i], ref.run(batch[i]))
          << backend.name() << " diverges on " << p.name << " image " << i;
    }
    // classify() agrees with the reference argmax.
    EXPECT_EQ(session->classify(batch[0]),
              ReferenceExecutor::argmax(ref.run(batch[0])));
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, BackendConformance,
                         ::testing::Values("engine"));

// ---- backend-specific behavior ----------------------------------------

TEST(BackendSession, ReportNamesItsBackend) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  NetworkParams params = NetworkParams::random(p, 99);
  const auto session = backend_registry().at("engine").compile(p, params);
  EXPECT_NE(session->report().find("backend: engine"), std::string::npos);
}

TEST(BackendSession, CancelAbortsAndSessionRecovers) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 100);
  const ReferenceExecutor ref(p, params);
  // Run 0 wedges a kernel until someone cancels it; run 1 is clean.
  EngineOptions options;
  options.faults.add(FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0));
  const auto session =
      backend_registry().at("engine").compile(p, params, options);
  std::thread canceller([&] {
    // The session re-arms its abort flag at run start, so wait until the
    // hung run is clearly in flight before cancelling.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    session->cancel();
  });
  const auto batch = synthetic_batch(2, 12, 12, 3, 101);
  EXPECT_THROW((void)session->infer_batch(batch), Error);
  canceller.join();
  // The SAME session re-arms and runs bit-exact after the abort.
  const std::vector<IntTensor> out = session->infer_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(batch[i])) << "image " << i;
  }
}

}  // namespace
}  // namespace qnn
