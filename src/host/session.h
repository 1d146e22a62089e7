// Host-side deployment session: the CPU application flow of §II-B/§III-B.
//
// On the Maxeler platform the host program compiles kernels to a bitstream
// (MaxCompiler), configures the DFEs, loads weights and normalization
// parameters once, and then streams images for inference. DfeSession is
// the software analog of that lifecycle:
//
//   auto session = DfeSession::compile(spec, params);   // or ::load(file)
//   int label = session.classify(image);                // streaming engine
//   std::cout << session.report();                      // placement, timing,
//                                                       // power, energy
//
// Inference runs on a registered Backend (backend/backend.h) — by default
// the threaded streaming engine (bit-exact functional model), or a
// partitioned "linked" backend once one is registered; placement,
// timing, power and energy come from the partitioner, cycle simulator and
// calibrated hardware models. DfeSession is a thin wrapper over one
// BackendSession plus the host-side deployment analyses (verification,
// estimate, placement feasibility, burst carry into the link models).
//
// Thread safety: a DfeSession models ONE board — infer()/infer_batch()/
// classify() drive a single BackendSession, so concurrent calls on the
// same session are NOT allowed. Distinct sessions are fully independent:
// compile() copies the spec and takes its own NetworkParams, and neither
// retains mutable state shared with other sessions, so a replica pool
// (serve/server.h) may compile N identical sessions from one NetworkSpec/
// NetworkParams pair and run them concurrently.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "dataflow/engine.h"
#include "perfmodel/fpga_estimate.h"
#include "plan/compiled_plan.h"

namespace qnn {

struct SessionConfig {
  SimConfig sim{};
  PartitionConfig partition{};
  DfeBoard board = max4_maia();
  EngineOptions engine{};
  /// Registered backend that executes inference (backend/backend.h). A
  /// DfeServer compiles every one of its replicas with this backend.
  std::string backend = "engine";
  /// Skip the cycle simulation at compile time (use the analytic clock
  /// model); useful when constructing many sessions in sweeps.
  bool fast_estimate = false;

  // ---- compile-time plan (plan/compiled_plan.h) --------------------------
  /// Pre-built plan this session compiles against. When set, its engine
  /// knobs override `engine`'s, its FIFO streams are wired verbatim, and
  /// its per-edge bursts feed the sim / partition link models. The session
  /// config owns the plan's lifetime (engine.plan is pointed at it
  /// internally, so a stored copy of this config recompiles correctly —
  /// restart_replica depends on that).
  std::shared_ptr<const CompiledPlan> plan;
  /// Plan-cache directory consulted when `plan` is unset; "" = the
  /// QNN_PLAN_CACHE environment variable (unset env = cache disabled).
  std::string plan_cache_dir;
  /// SLO component of the cache fingerprint (PlanKey::slo_us).
  std::int64_t slo_us = 0;
};

class DfeSession {
 public:
  /// Lower, partition and estimate a network ("place and route").
  [[nodiscard]] static DfeSession compile(const NetworkSpec& spec,
                                          NetworkParams params,
                                          SessionConfig config = {});

  /// Load a serialized network (nn/serialize.h) and compile it.
  [[nodiscard]] static DfeSession load(const std::string& path,
                                       SessionConfig config = {});

  DfeSession(DfeSession&&) noexcept;
  DfeSession& operator=(DfeSession&&) noexcept;
  ~DfeSession();

  /// Stream one image; returns the logits tensor.
  [[nodiscard]] IntTensor infer(const IntTensor& image);
  /// Stream a batch (kernels stay busy across images). When `stats` is
  /// non-null it receives the engine's wall-clock and stream/stall
  /// statistics for this run (consumed by the serving metrics layer).
  [[nodiscard]] std::vector<IntTensor> infer_batch(
      std::span<const IntTensor> images,
      StreamEngine::RunStats* stats = nullptr);
  /// Top-1 class of one image.
  [[nodiscard]] int classify(const IntTensor& image);

  /// Abort an in-flight infer()/infer_batch()/classify() from another
  /// thread (e.g. a serving-side deadline): the inference call throws and
  /// the session stays usable — the engine re-arms on the next run.
  void cancel();

  [[nodiscard]] const NetworkSpec& spec() const;
  [[nodiscard]] const Pipeline& pipeline() const;
  [[nodiscard]] const NetworkParams& params() const;
  /// DFE placement (segments + MaxRing cuts).
  [[nodiscard]] const PartitionResult& placement() const;
  /// Modeled runtime/power/energy on the DFE platform.
  [[nodiscard]] const FpgaRunEstimate& estimate() const;
  /// The compiled backend session inference runs on.
  [[nodiscard]] BackendSession& session();
  /// The registry-owned backend that compiled this session.
  [[nodiscard]] const Backend& backend() const;

  /// Human-readable deployment report: summary, placement, timing, power.
  [[nodiscard]] std::string report() const;

 private:
  struct State;
  explicit DfeSession(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

}  // namespace qnn
