// Factories for the builtin backends. backend_registry() registers one of
// each on first use; tests and pools that want differently configured
// instances (a simulator with cuts, a slower reference tier) construct
// their own and register them under a new name.
#pragma once

#include <cstdint>
#include <memory>

#include "backend/backend.h"
#include "dataflow/linked_engine.h"
#include "sim/cycle_model.h"

namespace qnn {

/// "engine" (kFast): the threaded StreamEngine, bit-exact and concurrent —
/// the software stand-in for a real DFE board.
[[nodiscard]] std::unique_ptr<Backend> make_engine_backend();

/// "simulator" (kShadow): results via the scalar reference path, latency
/// from the cycle simulator (§IV-B4 timing methodology). Timing is
/// data-independent, so the simulation runs once at compile(); each
/// infer_batch() reports the modeled batch time in
/// RunStats::simulated_seconds.
[[nodiscard]] std::unique_ptr<Backend> make_sim_backend(SimConfig sim = {});

/// "reference" (kSlow): the scalar ReferenceExecutor paced to at least
/// `floor_us_per_image` — a deliberately slow tier, so routing tests and
/// the serving ablation see a genuine fast/slow split even on the tiny
/// test networks. `name` lets extra instances (a slower ablation tier)
/// register alongside the builtin without a name clash.
[[nodiscard]] std::unique_ptr<Backend> make_reference_backend(
    std::int64_t floor_us_per_image = 1000, std::string name = "reference");

/// "linked" (kFast, NOT a registry builtin): the partitioned LinkedEngine —
/// one dataflow graph whose N segments are joined by fault-tolerant
/// in-process MaxRing links, with degraded-plan failover
/// (dataflow/linked_engine.h). `options`
/// carries the cut, link pacing and watchdog knobs; the per-session
/// EngineOptions handed to compile() override options.engine wholesale
/// (so plans, faults and replica identities flow through the normal
/// session path). Register an instance by name to put a partitioned fast
/// tier into a DfeServer pool.
[[nodiscard]] std::unique_ptr<Backend> make_linked_backend(
    LinkedEngineOptions options = {}, std::string name = "linked");

}  // namespace qnn
