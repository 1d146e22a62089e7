// Static dataflow-graph analyzer: reject bad graphs before anything runs.
//
// On the Maxeler toolchain a malformed kernel graph fails at compile time;
// our host engine used to discover the same defects as runtime hangs
// (a dead-end stream fills and stalls its whole upstream chain), crashes
// (out-of-range parameter banks), or silently poisoned results (a stream
// narrower than its producer truncates the bit-plane decomposition of the
// next convolution). This module re-derives every property the engine
// relies on, *without running anything*, and reports violations with
// stable QNN-Dxxx codes (verify/report.h):
//
//  (a) graph structure — dangling / unconsumed streams, edges that break
//      the topological order, unreachable kernels, degenerate forks;
//  (b) shape and bit-width propagation — each edge's (H, W, C, bits)
//      recomputed from the pipeline input and checked against every
//      kernel's declared ports, weight caches and threshold banks;
//  (c) deadlock / capacity — the FIFO plan the engine will wire (either
//      the CompiledPlan supplied via EngineOptions::plan, after a
//      QNN-D305 fingerprint check, or plan/fifo_plan.h re-derived on the
//      spot, with any link cuts routed through their pumps' rings) is
//      checked edge by edge: a skip FIFO at or above the
//      whole-feature-map bound is proved safe immediately; one below it
//      is decided *exactly* by the token-flow simulation of
//      verify/token_flow.h (proved QNN-D301 info, refuted QNN-D301 error
//      with the quiescent marking as witness, or QNN-D304 when liveness
//      is schedule-dependent), and a burst larger than the smallest FIFO
//      is clamped (QNN-D302) instead of live-locking;
//  (d) partition feasibility — per-cut MaxRing bit-rates against the
//      sim/ link model and per-DFE resource totals against
//      fpga/resource_model.
//
// StreamEngine and DfeSession run verify_graph()/verify_all() during
// construction (EngineOptions::verify, default on) and refuse to build a
// graph with any error-severity finding.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "dataflow/engine.h"
#include "nn/params.h"
#include "nn/pipeline.h"
#include "partition/partitioner.h"
#include "plan/fifo_plan.h"
#include "verify/report.h"

namespace qnn {

// PlannedStream / FifoPlan / line_buffer_values / plan_fifos moved to
// plan/fifo_plan.h — the planner is now part of the CompiledPlan artifact
// (plan/compiled_plan.h) and verify/ is a consumer that proves the plan,
// not the place it is decided.

// ---- individual analyses (append findings into an existing report) -----

/// (a) Edge sanity, dead ends, reachability, fork degeneracies.
void check_structure(const Pipeline& pipeline, Report& report);

/// (b) Symbolic (H, W, C, bits) propagation along every edge.
void check_shapes(const Pipeline& pipeline, Report& report);

/// (b) Weight caches, threshold banks and quantizer configuration.
void check_params(const Pipeline& pipeline, const NetworkParams& params,
                  Report& report);

/// (c) Deadlock / capacity proof over a FIFO plan. Exposed separately so
/// adversarial capacity plans can be checked without building an engine.
void check_capacities(const Pipeline& pipeline, const FifoPlan& plan,
                      Report& report);

/// (d) MaxRing link rates and per-DFE resource totals of a placement.
void check_partition(const Pipeline& pipeline, const PartitionResult& placement,
                     const PartitionConfig& config, Report& report);

// ---- entry points ------------------------------------------------------

/// Analyses (a)-(c). `params` may be null when only the graph is known
/// (parameter-bank checks are skipped). `links` are the partition cuts a
/// LinkedEngine routes through link pumps; the capacity proof covers
/// their rings like any other. Never throws on malformed input — every
/// defect becomes a finding.
[[nodiscard]] Report verify_graph(const Pipeline& pipeline,
                                  const NetworkParams* params,
                                  const EngineOptions& options = {},
                                  std::span<const LinkCut> links = {});

/// Analyses (a)-(d): verify_graph plus the partition feasibility checks
/// when a placement is supplied.
[[nodiscard]] Report verify_all(const Pipeline& pipeline,
                                const NetworkParams* params,
                                const EngineOptions& options,
                                const PartitionResult* placement,
                                const PartitionConfig& partition_config = {});

/// Throw qnn::Error listing every error-severity finding (prefixed with
/// `context`) when the report is not ok(); no-op otherwise.
void enforce(const Report& report, const std::string& context);

}  // namespace qnn
