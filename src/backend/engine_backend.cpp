// "engine" backend: the threaded StreamEngine behind the backend seam —
// the substrate DfeSession used to construct directly.
#include <memory>
#include <utility>

#include "backend/builtin.h"
#include "verify/backend_check.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

class EngineBackend;

class EngineSession final : public BackendSession {
 public:
  EngineSession(const Backend& owner, const Pipeline& pipeline,
                NetworkParams params, const EngineOptions& options)
      : owner_(owner),
        pipeline_(pipeline),
        params_(std::move(params)),
        // The engine holds references into the session's own copies, so
        // the members above must be in place before it is built.
        engine_(std::make_unique<StreamEngine>(pipeline_, params_, options)) {
  }

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
  std::unique_ptr<StreamEngine> engine_;
};

class EngineBackend final : public Backend {
 public:
  EngineBackend() {
    info_.name = "engine";
    info_.description =
        "threaded streaming engine (bit-exact DFE stand-in)";
    info_.max_devices = 8;  // the modeled MPC-X node
  }

  const BackendInfo& info() const override { return info_; }

  bool supports_op(const Node& node) const override {
    // Stream packing carries 1..32-bit codes; the XNOR bit-plane datapath
    // additionally caps convolution inputs at 16 planes (same limit the
    // D105 analysis enforces).
    if (node.in_bits < 1 || node.in_bits > 32) return false;
    if (node.out_bits < 1 || node.out_bits > 32) return false;
    if (node.kind == NodeKind::Conv && node.in_bits > 16) return false;
    return true;
  }

  std::unique_ptr<BackendSession> compile(
      const Pipeline& pipeline, NetworkParams params,
      const EngineOptions& options) const override {
    enforce(verify_backend(pipeline, *this),
            "engine backend compile(" + pipeline.name + ")");
    return std::make_unique<EngineSession>(*this, pipeline,
                                           std::move(params), options);
  }

 private:
  BackendInfo info_;
};

}  // namespace

std::unique_ptr<Backend> make_engine_backend() {
  return std::make_unique<EngineBackend>();
}

}  // namespace qnn
