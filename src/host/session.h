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
// Inference runs on one of the paper's two deployments (§III-B6, §III-C):
// the network on one DFE (a StreamEngine, the bit-exact threaded
// functional model) or cut across MaxRing-linked DFEs of one node (a
// LinkedEngine, chosen by setting SessionConfig::linked). Placement,
// timing, power and energy come from the partitioner, cycle simulator and
// calibrated hardware models. DfeSession owns the one engine plus the
// host-side deployment analyses (verification, estimate, placement
// feasibility, burst carry into the link models).
//
// Thread safety: a DfeSession models ONE board — infer()/infer_batch()/
// classify() drive a single engine, so concurrent calls on the
// same session are NOT allowed. Distinct sessions are fully independent:
// compile() copies the spec and takes its own NetworkParams, and neither
// retains mutable state shared with other sessions, so a replica pool
// (serve/server.h) may compile N identical sessions from one NetworkSpec/
// NetworkParams pair and run them concurrently.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/linked_engine.h"
#include "perfmodel/fpga_estimate.h"
#include "plan/compiled_plan.h"

namespace qnn {

/// The engine a DfeSession runs inference on: a StreamEngine, a
/// LinkedEngine, or a test fake (SessionConfig::make_engine). Like the
/// engines it wraps, it takes one infer_batch() at a time; cancel() may be
/// called from another thread to abort an in-flight run (the run throws,
/// the engine stays usable and re-arms on the next run).
class SessionEngine {
 public:
  SessionEngine() = default;
  virtual ~SessionEngine() = default;
  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  /// Run a batch; returns one logits tensor per image. When `stats` is
  /// non-null it receives wall-clock and transport statistics.
  [[nodiscard]] virtual std::vector<IntTensor> infer_batch(
      std::span<const IntTensor> images,
      StreamEngine::RunStats* stats) = 0;
  virtual void cancel() = 0;
  /// Label for reports and metrics: "engine", "linked" or a fake's name.
  [[nodiscard]] virtual std::string_view name() const = 0;
};

struct SessionConfig {
  SimConfig sim{};
  PartitionConfig partition{};
  DfeBoard board = max4_maia();
  EngineOptions engine{};
  /// Absent: inference runs on one StreamEngine. Present: on a LinkedEngine
  /// over this cut (an empty cut takes the plan's, else the partitioner's),
  /// with `linked->engine` replaced by `engine` above. A DfeServer compiles
  /// every one of its replicas the same way.
  std::optional<LinkedEngineOptions> linked;
  /// Test seam: when set, builds the session's engine in place of the two
  /// above. It lives here so a replica restart, which recompiles from the
  /// stored config, rebuilds through it too. The pipeline and params
  /// outlive the engine it returns.
  std::function<std::unique_ptr<SessionEngine>(
      const Pipeline&, const NetworkParams&, const EngineOptions&)>
      make_engine;
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
  /// What inference runs on: "engine", "linked" or a test fake's name.
  [[nodiscard]] std::string_view kind() const;

  /// Human-readable deployment report: summary, placement, timing, power.
  [[nodiscard]] std::string report() const;

 private:
  struct State;
  explicit DfeSession(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

}  // namespace qnn
