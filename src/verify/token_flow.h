// Exact token-flow feasibility proof for a planned FIFO graph.
//
// The whole-feature-map rule (plan/fifo_plan.h) is a *sufficient* skip
// capacity: with one full map of buffering the skip path can always run an
// image ahead, whatever the regular path does. It is not *necessary* — the
// skip FIFO only has to absorb the regular path's true lag, which for most
// residual blocks is a fraction of the map (the K-1 rows the window
// scanners retain, plus the planned FIFO depths between the fan-out point
// and the adder).
// The analyzer used to reject every below-bound capacity outright; this
// module decides those cases exactly instead.
//
// Method: a self-timed simulation of the pipeline as the timed marked
// graph the engine actually executes. Every planned stream is a place
// with its planned capacity; every kernel is a transition whose exact
// consume/produce behavior is taken from dataflow/kernels.cpp — window
// kernels replay their WindowScanner geometry (padding positions consume
// no input; a completed window emits all O responses at once), adders
// consume pairwise, and a transition writes all of its output places —
// one per consumer port where its output fans out, the rings of the
// BnActs its port evaluates included — in lockstep, only when every one
// has room. A BnAct is never a transition: its writer emits one code per
// value. The network is a Kahn process
// network, so its outcome is schedule independent: a greedy
// maximal-progress run reaches the unique least fixed point, and batching
// whole runs of values per firing changes cost, never the verdict (Kahn
// monotonicity).
//
// Burst machinery makes the implementation *slightly* laxer than the pure
// network: a kernel's InBurst drains its FIFO up to one burst early and
// its OutStage holds one burst's responses past a full ring, letting each
// ring of a fanned-out port run up to that burst ahead of its siblings
// (dataflow/kernels.h). Whether that slack is realized depends on how the
// scheduler interleaves refills, so the simulation brackets the engine
// between two exact models:
//
//   tight  — no slack counted. Completion here is a proof: every real
//            schedule has at least this much buffering, and growing
//            buffers never creates a deadlock in a Kahn network.
//   slack  — every burst buffer counted at full size. Deadlock here is a
//            refutation: no schedule can see more buffering than this.
//
// tight-deadlock + slack-completion is the honest in-between: the graph
// lives or dies on scheduler luck (QNN-D304), and the capacity must grow.
#pragma once

#include <cstdint>
#include <string>

#include "nn/pipeline.h"
#include "plan/fifo_plan.h"

namespace qnn {

struct TokenFlowBudget {
  /// Back-to-back images simulated, so the proof covers the pipelined
  /// regime where image n+1 enters while image n drains. Kernel state is
  /// image-periodic (scanners reset per image), so two images exercise
  /// both the fill transient and the wrapped steady state.
  int images = 2;
  /// Cap on tokens moved across all places; exceeding it yields
  /// kUndecided (the graph is then reported QNN-D304, never silently
  /// assumed safe).
  std::int64_t max_tokens = 200'000'000;
  /// Cap on greedy sweeps over the transition list (guards pathological
  /// capacity-1 plans where every firing moves one value).
  std::int64_t max_sweeps = 2'000'000;
};

enum class TokenVerdict {
  kFeasible,   // tight model completes: deadlock-free under every schedule
  kDeadlock,   // slack model quiesces early: deadlocks under every schedule
  kMarginal,   // tight deadlocks, slack completes: schedule-dependent
  kUndecided,  // budget exhausted before either model finished
};

[[nodiscard]] const char* token_verdict_name(TokenVerdict v);

struct TokenFlowResult {
  TokenVerdict verdict = TokenVerdict::kUndecided;
  /// kDeadlock / kMarginal: the quiescent marking — every unfinished
  /// kernel with the port it is starved or jammed on, so the report names
  /// the cycle instead of just declaring it.
  std::string witness;
  std::int64_t tokens_moved = 0;  // of the decisive model run
};

/// Decide deadlock-freedom of `plan` wired over `pipeline` exactly.
/// Precondition: the pipeline passed the structural checks (analysis (a))
/// — every plan edge resolves and the graph is topologically ordered.
[[nodiscard]] TokenFlowResult prove_token_flow(const Pipeline& pipeline,
                                               const FifoPlan& plan,
                                               const TokenFlowBudget& budget = {});

}  // namespace qnn
