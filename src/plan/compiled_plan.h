// CompiledPlan: everything decided at compile time, frozen into one value.
//
// The design space of the paper — per-edge FIFO depths (§III-B1b), burst
// framing, the partition cut across MaxRing-linked DFEs (§III-B6) — plus
// the host-side execution knobs (worker count, pinning) used
// to be re-derived ad hoc at four layers: the analyzer planned FIFOs, the
// session re-threaded bursts into the sim and partition configs, the engine
// re-read the same knobs, and the server hand-picked pool shapes. A
// CompiledPlan captures the whole decision once:
//
//   * the FIFO plan (plan/fifo_plan.h) the engine wires verbatim,
//   * per-edge bursts carried into the cycle simulator's MaxRing
//     serializer and the partitioner's wire pricing,
//   * the executor's pool_threads / pin_threads / pin_offset,
//   * the partition cut,
//
// keyed by a stable fingerprint (model hash, machine signature, SLO) so a
// plan tuned once — by hand or by plan/autotune.h — can be persisted
// (plan/json.h, plan/cache.h) and reloaded on a server cold start.
//
// Consumption contract: EngineOptions::plan points at a CompiledPlan whose
// lifetime the caller owns (SessionConfig holds it by shared_ptr); the
// StreamEngine then wires the plan's FIFOs instead of re-deriving them,
// and verify/graph_check.h proves the SAME streams deadlock-free (a plan
// whose model hash does not match the pipeline fails QNN-D305).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/pipeline.h"
#include "partition/partitioner.h"
#include "plan/fifo_plan.h"
#include "sim/cycle_model.h"

namespace qnn {

/// Serialization format version (plan/json.h). Bump on any field change
/// that older readers would misinterpret; the cache treats a version
/// mismatch as a miss, never as an error (DESIGN.md §9). Version 2 dropped
/// the "executor" field (one scheduler is left), so a version-1 plan is a
/// loud miss rather than a plan armed with a knob nothing reads. Version 3
/// planned no stream inside a fused conv→BnAct pair, so a version-2 plan,
/// which still wires one, is a miss too. Version 4 plans a fan-out as one
/// direct ring per consumer port, written by the producer itself, so a
/// version-3 plan's fork "trunk" and "branch" streams are a miss as well.
/// Version 5 plans no ring into any BnAct (the port that writes its input
/// evaluates it), so a version-4 plan's rings into the BnActs after an
/// Add are a miss too. Version 6 dropped the "skip_slack" field (the slack
/// of a skip-path ring is the fixed kSkipSlack), so a version-5 plan is a
/// miss rather than a plan carrying a knob nothing reads. Version 7
/// dropped the "backend" field (a session runs a StreamEngine, or a
/// LinkedEngine when SessionConfig::linked is set), so a version-6 plan is
/// a miss as well.
inline constexpr int kPlanFormatVersion = 7;

/// Structural hash of a pipeline (FNV-1a over shapes, edges, widths and
/// window geometry; node *names* are excluded so a rename does not orphan
/// a tuned plan). Any edit that changes what the engine would execute
/// changes the hash.
[[nodiscard]] std::uint64_t model_hash(const Pipeline& pipeline);

/// Host signature a plan was tuned on: architecture + core count (e.g.
/// "x86_64-8c"). Plans do not transfer between machine shapes — the
/// worker/pinning knobs they freeze are core-count dependent.
[[nodiscard]] std::string machine_signature();

/// Stable cache fingerprint: (model hash, machine signature, SLO).
struct PlanKey {
  std::uint64_t model_hash = 0;
  std::string machine;
  /// Target per-request latency budget the plan was tuned for, in
  /// microseconds; 0 = tuned for throughput.
  std::int64_t slo_us = 0;

  /// Filesystem-safe fingerprint string, e.g. "m1a2b3c4-x86_64-8c-slo0".
  [[nodiscard]] std::string str() const;

  bool operator==(const PlanKey&) const = default;
};

/// Make the fingerprint of `pipeline` on this machine for `slo_us`.
[[nodiscard]] PlanKey plan_key(const Pipeline& pipeline,
                               std::int64_t slo_us = 0);

struct CompiledPlan {
  int version = kPlanFormatVersion;
  /// Display name of the network the plan was built from (not part of the
  /// fingerprint; key.model_hash is the identity).
  std::string model;
  PlanKey key;

  // ---- host engine knobs (EngineOptions mirror) --------------------------
  std::size_t fifo_capacity = 0;
  std::size_t burst = 0;
  bool adaptive_burst = true;
  unsigned pool_threads = 0;
  bool pin_threads = false;
  unsigned pin_offset = 0;

  // ---- partition ---------------------------------------------------------
  /// Multi-DFE cut (§III-B6): node indices after which the pipeline is
  /// split onto the next DFE. Empty = let the partitioner choose.
  std::vector<int> cut_after_nodes;

  // ---- the frozen decisions ----------------------------------------------
  /// The FIFO plan the engine wires verbatim (EngineOptions::plan).
  FifoPlan fifos;
  /// Per-edge bursts for the sim's MaxRing serializer and the
  /// partitioner's framed wire pricing (plan_edges: the bursts of `fifos`,
  /// plus each edge into a BnAct — the burst a cut there would frame).
  std::vector<SimConfig::EdgeBurst> link_bursts;

  // ---- provenance (plan/autotune.h) --------------------------------------
  double predicted_ips = 0.0;   // cycle-model oracle estimate
  double calibrated_ips = 0.0;  // short live calibration run; 0 = none

  [[nodiscard]] std::string fingerprint() const { return key.str(); }

  /// Does this plan describe `pipeline` (structural hash match)? A stale
  /// plan applied to an edited model fails verification with QNN-D305.
  [[nodiscard]] bool matches(const Pipeline& pipeline) const {
    return key.model_hash == model_hash(pipeline);
  }

  /// Copy the engine knobs into `options`. Does NOT set options.plan —
  /// the pointer's lifetime is the caller's contract (see file comment).
  void apply_engine(EngineOptions& options) const;
  /// Carry the planned bursts + cut into the cycle simulator's config.
  void apply_sim(SimConfig& sim) const;
  /// Carry the planned bursts into the partitioner's wire pricing.
  void apply_partition(PartitionConfig& partition) const;
};

/// Freeze the plan implied by `options` for `pipeline`: the FIFO plan, the
/// per-edge link bursts derived from it, the engine knobs, and the
/// fingerprint. This is the "default plan" — exactly what the engine would
/// decide on its own — and the autotuner's candidate 0.
[[nodiscard]] CompiledPlan compile_plan(const Pipeline& pipeline,
                                        const EngineOptions& options = {},
                                        std::int64_t slo_us = 0);

}  // namespace qnn
