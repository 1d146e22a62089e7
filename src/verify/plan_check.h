// Compiled-plan consistency lint: prove a CompiledPlan still means what it
// says before the engine is armed with it.
//
// A CompiledPlan is a frozen artifact (plan/compiled_plan.h) that travels:
// it is serialized into the plan cache, reloaded on server cold starts, and
// copied across a replica pool. Three things can silently go wrong on that
// journey, and each has its own stable diagnostic:
//
//   QNN-D305  the plan no longer describes this deployment — stale model
//             hash, wrong format version, or structurally corrupt FIFO
//             streams (out-of-range node indices, zero capacities). The
//             offending FIELD is named in the message so a cache operator
//             can see *what* drifted, not just that something did.
//   QNN-D611  machine drift — the plan was tuned on a different host shape
//             (PlanKey::machine vs machine_signature()). The plan still
//             runs bit-exactly, but its worker/pinning/burst knobs were
//             chosen for another core count, so this is a warning.
//   QNN-D612  burst/FIFO skew after deserialization — a per-stream burst
//             larger than its own FIFO, or link_bursts that disagree with
//             the bursts frozen in `fifos`. The engine clamps the former at
//             runtime (QNN-D302) and the link models silently price the
//             latter, which is exactly why a corrupted file needs a loud
//             static finding instead.
//
// lint_pool_pinning covers the deployment-side hazard the plan itself
// cannot see: when a replica pool pins worker threads, every replica's core
// window [pin_offset, pin_offset + threads) must be disjoint, or two
// engines time-share the same cores and the pool's throughput collapses to
// a fraction of one replica's (QNN-D610).
//
// DfeSession/DfeServer run lint_plan on every cache-loaded plan before
// arming the engine; a plan that fails the lint is treated as a cache MISS
// (the cache contract says a corrupt entry must never break a cold start).
// verify_graph() runs the same lint on explicitly supplied plans, where an
// error fails construction like any other QNN-Dxxx error.
#pragma once

#include <string>
#include <vector>

#include "nn/pipeline.h"
#include "plan/compiled_plan.h"
#include "verify/report.h"

namespace qnn {

/// Re-verify `plan` against `pipeline` and this machine: QNN-D305 (stale /
/// corrupt, offending field named), QNN-D611 (machine drift, warning),
/// QNN-D612 (burst/FIFO skew). Appends findings; emits an info-severity
/// QNN-D305 line when the plan is fully consistent (mirroring how QNN-D301
/// reports a proved capacity).
void lint_plan(const Pipeline& pipeline, const CompiledPlan& plan,
               Report& report);

/// One replica's pinned core window inside a pool.
struct ReplicaPinWindow {
  std::string label;        // e.g. "replica 2 (engine)"
  unsigned pin_offset = 0;  // first core the replica's worker 0 binds to
  unsigned threads = 0;     // window width in cores; 0 = window unknown
};

/// Check that every pair of pinned replica windows is disjoint and that the
/// pool fits the machine. Overlap is QNN-D610 (warning: correctness is
/// unaffected, throughput is not); a pool extending past the last hardware
/// core also gets QNN-D610 because the engine wraps pins modulo the core
/// count, which IS an overlap in disguise. `hardware_cores` <= 0 means
/// "use this machine's core count".
void lint_pool_pinning(const std::vector<ReplicaPinWindow>& windows,
                       Report& report, int hardware_cores = 0);

}  // namespace qnn
