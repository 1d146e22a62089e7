// Factories for the backends this repo ships. backend_registry() registers
// "engine" on first use; a partitioned "linked" backend is constructed with
// its cut and link options and registered under a name of the caller's
// choosing.
#pragma once

#include <memory>

#include "backend/backend.h"
#include "dataflow/linked_engine.h"

namespace qnn {

/// "engine": the threaded StreamEngine, bit-exact and concurrent —
/// the software stand-in for a real DFE board.
[[nodiscard]] std::unique_ptr<Backend> make_engine_backend();

/// "linked" (NOT a registry builtin): the partitioned LinkedEngine —
/// one dataflow graph whose N segments are joined by fault-tolerant
/// in-process MaxRing links, with degraded-plan failover
/// (dataflow/linked_engine.h). `options`
/// carries the cut, link pacing and watchdog knobs; the per-session
/// EngineOptions handed to compile() override options.engine wholesale
/// (so plans, faults and replica identities flow through the normal
/// session path). Register an instance by name and name it in
/// SessionConfig::backend to serve a DfeServer from partitioned replicas.
[[nodiscard]] std::unique_ptr<Backend> make_linked_backend(
    LinkedEngineOptions options = {}, std::string name = "linked");

}  // namespace qnn
