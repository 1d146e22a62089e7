// "linked" backend: the partitioned LinkedEngine behind the backend seam —
// one dataflow graph cut into N segments daisy-chained by fault-tolerant
// in-process MaxRing links, with degraded-plan failover on permanent link
// death.
// Not a registry builtin: callers that want partitioned replicas construct
// one with their cut + link options and register it by name.
#include <memory>
#include <utility>

#include "backend/builtin.h"
#include "verify/backend_check.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

class LinkedBackend;

class LinkedSession final : public BackendSession {
 public:
  LinkedSession(const Backend& owner, const Pipeline& pipeline,
                NetworkParams params, LinkedEngineOptions options)
      : owner_(owner),
        pipeline_(pipeline),
        params_(std::move(params)),
        // The engine holds references into the session's own copies, so
        // the members above must be in place before it is built.
        engine_(std::make_unique<LinkedEngine>(pipeline_, params_,
                                               std::move(options))) {}

  std::vector<IntTensor> infer_batch(std::span<const IntTensor> images,
                                     StreamEngine::RunStats* stats) override {
    return engine_->run(images, stats);
  }

  void cancel() override { engine_->cancel(); }

  const Pipeline& pipeline() const override { return pipeline_; }
  const NetworkParams& params() const override { return params_; }
  const Backend& backend() const override { return owner_; }

 private:
  const Backend& owner_;
  Pipeline pipeline_;
  NetworkParams params_;
  std::unique_ptr<LinkedEngine> engine_;
};

class LinkedBackend final : public Backend {
 public:
  LinkedBackend(LinkedEngineOptions defaults, std::string name)
      : defaults_(std::move(defaults)) {
    info_.name = std::move(name);
    info_.description =
        "partitioned streaming engine over fault-tolerant MaxRing links";
    info_.max_devices = 8;  // the modeled MPC-X node
  }

  const BackendInfo& info() const override { return info_; }

  bool supports_op(const Node& node) const override {
    // Same datapath limits as the "engine" backend: the chain is one
    // plain StreamEngine graph plus link pumps.
    if (node.in_bits < 1 || node.in_bits > 32) return false;
    if (node.out_bits < 1 || node.out_bits > 32) return false;
    if (node.kind == NodeKind::Conv && node.in_bits > 16) return false;
    return true;
  }

  std::unique_ptr<BackendSession> compile(
      const Pipeline& pipeline, NetworkParams params,
      const EngineOptions& options) const override {
    enforce(verify_backend(pipeline, *this),
            "linked backend compile(" + pipeline.name + ")");
    LinkedEngineOptions linked = defaults_;
    // The per-session EngineOptions win over the backend defaults (plan,
    // faults, replica identity, pinning all flow through here); the
    // LinkedEngine itself resolves the cut from options.plan when the
    // backend was not configured with an explicit one.
    linked.engine = options;
    return std::make_unique<LinkedSession>(*this, pipeline, std::move(params),
                                           std::move(linked));
  }

 private:
  BackendInfo info_;
  LinkedEngineOptions defaults_;
};

}  // namespace

std::unique_ptr<Backend> make_linked_backend(LinkedEngineOptions options,
                                             std::string name) {
  return std::make_unique<LinkedBackend>(std::move(options), std::move(name));
}

}  // namespace qnn
