// Model-checker suite (`mc` label): the scheduler/stream protocol is
// explored exhaustively within stated preemption bounds, and the checker
// itself is validated by broken protocol variants it MUST catch.
//
// The whole suite is budgeted to stay well under a minute (MC=1
// tools/check.sh); the deeper sweeps live in the qnn_mc CLI.
#include <gtest/gtest.h>

#include "mc/harness.h"

namespace qnn::mc {
namespace {

// The fiber scheduler hand-switches stacks, which the sanitizers' shadow
// state does not follow; the `mc` label is disjoint from `sanitize`, and
// sanitized builds skip these suites explicitly.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QNN_MC_SKIP() GTEST_SKIP() << "model checker needs an unsanitized build"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QNN_MC_SKIP() GTEST_SKIP() << "model checker needs an unsanitized build"
#else
#define QNN_MC_SKIP() (void)0
#endif
#else
#define QNN_MC_SKIP() (void)0
#endif

Scenario base() {
  Scenario s;
  s.pipes = 1;
  s.workers = 2;
  s.values = 2;
  s.capacity = 1;
  s.budget.preemption_bound = 2;
  s.budget.max_executions = 500000;
  return s;
}

TEST(ModelChecker, CleanProtocolOnePipeExhaustive) {
  QNN_MC_SKIP();
  const Scenario s = base();
  const Model::Result r = check_protocol(s);
  ASSERT_TRUE(r.ok()) << r.violations[0].what << "\n" << r.violations[0].trace;
  // The proof claim requires the tree to be explored to the end, not cut
  // by the execution budget.
  EXPECT_TRUE(r.stats.complete);
  EXPECT_FALSE(r.stats.budget_exhausted);
  EXPECT_GT(r.stats.executions, 1000u);
}

TEST(ModelChecker, CleanProtocolTwoByTwoExhaustive) {
  QNN_MC_SKIP();
  Scenario s = base();
  s.pipes = 2;  // 2 producers x 2 consumers — the acceptance bound
  const Model::Result r = check_protocol(s);
  ASSERT_TRUE(r.ok()) << r.violations[0].what << "\n" << r.violations[0].trace;
  EXPECT_TRUE(r.stats.complete);
  EXPECT_GT(r.stats.executions, 10000u);
}

TEST(ModelChecker, CleanProtocolDeeperRingStaysClean) {
  QNN_MC_SKIP();
  Scenario s = base();
  s.capacity = 2;
  s.values = 3;
  s.budget.preemption_bound = 2;
  const Model::Result r = check_protocol(s);
  ASSERT_TRUE(r.ok()) << r.violations[0].what << "\n" << r.violations[0].trace;
  EXPECT_TRUE(r.stats.complete);
}

TEST(ModelChecker, CleanProtocolNonPowerOfTwoRingWrapsCleanly) {
  QNN_MC_SKIP();
  // Rings hold exactly `capacity` slots (position mod capacity): with
  // more values than slots the payload buffer is reused mid-run, so a
  // slot overwritten before its value was popped shows up as a value
  // integrity violation.
  Scenario s = base();
  s.capacity = 3;
  s.values = 4;
  s.budget.preemption_bound = 2;
  const Model::Result r = check_protocol(s);
  ASSERT_TRUE(r.ok()) << r.violations[0].what << "\n" << r.violations[0].trace;
  EXPECT_TRUE(r.stats.complete);
}

TEST(ModelChecker, MutationTemplateMatchesProduction) {
  QNN_MC_SKIP();
  // check_protocol_mutated<NoProtocolMutations> IS the production
  // protocol; pin the equivalence so the mutation plumbing cannot drift.
  const Scenario s = base();
  const Model::Result a = check_protocol(s);
  const Model::Result b = check_protocol_mutated<NoProtocolMutations>(s);
  EXPECT_EQ(a.stats.executions, b.stats.executions);
  EXPECT_TRUE(b.ok());
}

// Each mutation removes one load-bearing ingredient of the lost-wakeup
// closure (ready_protocol.h); the checker must catch every one, which is
// the evidence that "0 violations" on the real protocol means something.

TEST(ModelChecker, CatchesRemovedWakeFence) {
  QNN_MC_SKIP();
  Scenario s = base();
  s.budget.preemption_bound = 3;
  const Model::Result r = check_protocol_mutated<MutSkipWakeFence>(s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].what.find("deadlock"), std::string::npos)
      << r.violations[0].what;
  EXPECT_FALSE(r.violations[0].trace.empty());
}

TEST(ModelChecker, CatchesSkippedRestep) {
  QNN_MC_SKIP();
  Scenario s = base();
  s.budget.preemption_bound = 3;
  const Model::Result r = check_protocol_mutated<MutSkipRestep>(s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].what.find("deadlock"), std::string::npos)
      << r.violations[0].what;
}

TEST(ModelChecker, CatchesDroppedNotify) {
  QNN_MC_SKIP();
  Scenario s = base();
  s.budget.preemption_bound = 3;
  const Model::Result r = check_protocol_mutated<MutDropNotify>(s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].what.find("deadlock"), std::string::npos)
      << r.violations[0].what;
}

TEST(ModelChecker, BudgetExhaustionIsReportedNotSilent) {
  QNN_MC_SKIP();
  Scenario s = base();
  s.budget.max_executions = 50;  // far below the tree size
  const Model::Result r = check_protocol(s);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.stats.budget_exhausted);
  EXPECT_FALSE(r.stats.complete);
  Report rep;
  to_report(s, r, rep);
  EXPECT_TRUE(rep.has(diag::kProtoBudget));
  EXPECT_EQ(rep.errors(), 0);
}

TEST(ModelChecker, ReportMapsVerdictsToD6xxCodes) {
  QNN_MC_SKIP();
  {  // clean run -> D605 proof note, no errors
    const Scenario s = base();
    Report rep;
    to_report(s, check_protocol(s), rep);
    EXPECT_TRUE(rep.ok());
    EXPECT_TRUE(rep.has(diag::kProtoExplored));
  }
  {  // lost wakeup -> D601 error carrying the interleaving trace
    Scenario s = base();
    s.budget.preemption_bound = 3;
    Report rep;
    to_report(s, check_protocol_mutated<MutSkipRestep>(s), rep);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has(diag::kProtoDeadlock));
  }
}

TEST(ModelChecker, SleepSetPruningPreservesVerdicts) {
  QNN_MC_SKIP();
  // Reduction must change cost, never verdicts: the mutation is caught
  // with pruning disabled too, and the clean protocol stays clean.
  Scenario s = base();
  s.budget.sleep_sets = false;
  s.budget.preemption_bound = 2;
  const Model::Result clean = check_protocol(s);
  EXPECT_TRUE(clean.ok());
  EXPECT_TRUE(clean.stats.complete);
  s.budget.preemption_bound = 3;
  const Model::Result broken = check_protocol_mutated<MutSkipRestep>(s);
  EXPECT_FALSE(broken.ok());
}

}  // namespace
}  // namespace qnn::mc
