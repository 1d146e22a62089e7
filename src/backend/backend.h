// Backend seam: the execution substrate behind DfeSession and DfeServer.
//
// The paper's deployment (§IV-B4) is a farm of identical DFE boards; here
// every board is a session compiled by one registered backend. The seam
// follows the ggml/QNN backend registry shape (ggml_backend_qnn_reg /
// ggml_qnn_supports_op): a process-wide registry of named backends, each
// exposing a capability descriptor, a per-node supports_op() gate that
// runs as a QNN-D5xx check before compile (verify/backend_check.h), and a
// compile() that lowers a verified Pipeline into an executable
// BackendSession. Tests register fakes through the same seam.
//
// One builtin registers on first use of backend_registry():
//
//   name      substrate
//   "engine"  threaded StreamEngine (the DFE stand-in)
//
// The partitioned "linked" backend (backend/builtin.h) joins by
// registration. DfeSession (host/) is a thin wrapper over one
// BackendSession; DfeServer (serve/) compiles `replicas` copies of one
// backend.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/engine.h"
#include "nn/params.h"
#include "nn/pipeline.h"

namespace qnn {

/// Capability descriptor of one backend.
struct BackendInfo {
  std::string name;
  std::string description;
  /// Devices of this kind one process may drive at once (a replica bound;
  /// the modeled MPC-X node holds 8 DFEs).
  int max_devices = 8;
};

class Backend;

/// One compiled instance of a backend — the analog of a configured board.
///
/// Thread contract mirrors the old DfeSession: one session models ONE
/// device, so concurrent infer_batch() calls on the same session are not
/// allowed; distinct sessions share no mutable state and may run
/// concurrently. cancel() is the exception: it may be called from another
/// thread to abort an in-flight run (the run throws, the session stays
/// usable and re-arms on the next run).
class BackendSession {
 public:
  BackendSession() = default;
  virtual ~BackendSession() = default;
  BackendSession(const BackendSession&) = delete;
  BackendSession& operator=(const BackendSession&) = delete;

  /// Run a batch; returns one logits tensor per image. When `stats` is
  /// non-null it receives wall-clock and transport statistics.
  [[nodiscard]] virtual std::vector<IntTensor> infer_batch(
      std::span<const IntTensor> images,
      StreamEngine::RunStats* stats = nullptr) = 0;

  /// Abort an in-flight infer_batch() from another thread.
  virtual void cancel() = 0;

  [[nodiscard]] virtual const Pipeline& pipeline() const = 0;
  [[nodiscard]] virtual const NetworkParams& params() const = 0;
  /// The (registry-owned) backend that compiled this session.
  [[nodiscard]] virtual const Backend& backend() const = 0;

  /// Human-readable description of the compiled artifact: network
  /// summary plus backend identity.
  [[nodiscard]] std::string report() const;

  /// Single-image convenience wrappers over infer_batch().
  [[nodiscard]] IntTensor infer(const IntTensor& image);
  [[nodiscard]] int classify(const IntTensor& image);
};

/// An execution substrate that can lower pipelines into sessions.
/// Implementations are stateless after construction (compile() is const),
/// so one registry-owned instance serves every thread.
class Backend {
 public:
  Backend() = default;
  virtual ~Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] virtual const BackendInfo& info() const = 0;

  /// Devices currently available to this backend; a backend reporting 0
  /// fails the QNN-D502 check and cannot compile.
  [[nodiscard]] virtual int device_count() const { return info().max_devices; }

  /// Can this backend execute `node` bit-exactly? Gated per node as
  /// QNN-D501 before compile (verify/backend_check.h) — the ggml-qnn
  /// supports_op shape.
  [[nodiscard]] virtual bool supports_op(const Node& node) const = 0;

  /// Lower a pipeline into an executable session. Implementations enforce
  /// the D5xx support check first and copy `pipeline`/`params`, so the
  /// session outlives both arguments. EngineOptions carries substrate
  /// tuning (burst plan, executor, faults) and optionally a pre-built
  /// CompiledPlan (EngineOptions::plan, non-owning — see
  /// plan/compiled_plan.h) whose FIFO streams the engine backend wires
  /// verbatim.
  [[nodiscard]] virtual std::unique_ptr<BackendSession> compile(
      const Pipeline& pipeline, NetworkParams params,
      const EngineOptions& options = {}) const = 0;

  [[nodiscard]] const std::string& name() const { return info().name; }
};

/// Name-keyed backend collection. Registration is append-only (backends
/// are process-lifetime, like the ggml registry); lookups are by unique
/// name. Thread-safe.
class BackendRegistry {
 public:
  /// Register and take ownership; the name must be unused. Returns the
  /// registered backend (stable for the registry's lifetime).
  Backend& register_backend(std::unique_ptr<Backend> backend);

  /// Backend by name, or nullptr.
  [[nodiscard]] Backend* find(std::string_view name) const;
  /// Backend by name; throws qnn::Error listing the registered names.
  [[nodiscard]] Backend& at(std::string_view name) const;
  /// Every registered backend, in registration order.
  [[nodiscard]] std::vector<Backend*> all() const;
  [[nodiscard]] int size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Backend>> backends_;
};

/// The process-wide registry. The builtin "engine" backend (see
/// backend/builtin.h) is registered on first call; further backends may be
/// added by anyone at any time.
[[nodiscard]] BackendRegistry& backend_registry();

}  // namespace qnn
