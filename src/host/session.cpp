#include "host/session.h"

#include <sstream>

#include "io/table.h"
#include "nn/reference.h"
#include "nn/serialize.h"
#include "nn/summary.h"
#include "plan/cache.h"
#include "verify/graph_check.h"
#include "verify/plan_check.h"

namespace qnn {
namespace {

/// A StreamEngine or LinkedEngine behind the SessionEngine interface.
template <typename Engine>
class EngineRunner final : public SessionEngine {
 public:
  template <typename... Args>
  explicit EngineRunner(std::string_view name, Args&&... args)
      : name_(name), engine_(std::forward<Args>(args)...) {}

  std::vector<IntTensor> infer_batch(std::span<const IntTensor> images,
                                     StreamEngine::RunStats* stats) override {
    return engine_.run(images, stats);
  }
  void cancel() override { engine_.cancel(); }
  std::string_view name() const override { return name_; }

 private:
  std::string_view name_;
  Engine engine_;
};

}  // namespace

struct DfeSession::State {
  SessionConfig config;
  NetworkSpec spec;
  Pipeline pipeline;
  NetworkParams params;
  FpgaRunEstimate estimate;
  // Reads `pipeline` and `params` above, whose addresses the unique_ptr
  // holding this State keeps stable across moves of the session.
  std::unique_ptr<SessionEngine> engine;
};

DfeSession::DfeSession(std::unique_ptr<State> state)
    : state_(std::move(state)) {}
DfeSession::DfeSession(DfeSession&&) noexcept = default;
DfeSession& DfeSession::operator=(DfeSession&&) noexcept = default;
DfeSession::~DfeSession() = default;

DfeSession DfeSession::compile(const NetworkSpec& spec, NetworkParams params,
                               SessionConfig config) {
  auto state = std::make_unique<State>();
  state->spec = spec;
  state->pipeline = expand(spec);
  state->params = std::move(params);
  const std::string context =
      "DfeSession::compile(" + state->pipeline.name + ")";
  // Plan resolution: an explicit SessionConfig::plan wins; otherwise the
  // plan cache is consulted (keyed by model hash + machine + SLO), and a
  // miss means the engine derives everything from the options as before.
  if (config.plan == nullptr) {
    const PlanCache cache(config.plan_cache_dir.empty()
                              ? PlanCache::default_dir()
                              : config.plan_cache_dir);
    if (cache.enabled()) {
      if (auto cached = cache.load(plan_key(state->pipeline, config.slo_us))) {
        // Re-verify before arming (verify/plan_check.h): a cached file that
        // parses but carries a stale hash, corrupt streams or burst/FIFO
        // skew is a MISS, not a fatal error — the cache contract says a
        // corrupt entry must never break a cold start.
        Report lint;
        lint_plan(state->pipeline, *cached, lint);
        if (lint.ok()) {
          config.plan =
              std::make_shared<const CompiledPlan>(*std::move(cached));
        }
      }
    }
  }
  if (config.plan != nullptr) {
    // The plan's frozen knobs override the ad-hoc engine options, and the
    // engine is pointed at the plan itself (non-owning; the shared_ptr in
    // the stored config keeps the pointee alive across recompiles).
    // pin_offset is deployment-site identity, not a plan decision:
    // DfeServer staggers it per replica so pools tile the machine, and
    // that stagger must survive the plan application.
    const unsigned pin_offset = config.engine.pin_offset;
    config.plan->apply_engine(config.engine);
    config.engine.pin_offset = pin_offset;
    config.engine.plan = config.plan.get();
  }
  state->config = config;
  if (config.engine.verify) {
    // Static verification with structured QNN-Dxxx codes before anything
    // else touches the graph: structure, shapes/bit widths, parameter
    // banks and FIFO capacities (verify/graph_check.h).
    enforce(verify_graph(state->pipeline, &state->params, config.engine),
            context);
  }
  QNN_CHECK(static_cast<int>(state->params.convs.size()) ==
                state->pipeline.num_conv_params,
            "parameters do not match the network (conv banks)");
  QNN_CHECK(static_cast<int>(state->params.bnacts.size()) ==
                state->pipeline.num_bnact_params,
            "parameters do not match the network (bnact banks)");
  // Carry the compile-time plan's per-edge bursts (and cut, when it has
  // one) into both link models so the sim's MaxRing serializer and the
  // partitioner's wire pricing see the same transaction granularity the
  // engine will actually use. Explicit user-provided bursts win — the
  // apply helpers only fill empty fields.
  if (config.sim.link_bursts.empty() ||
      config.partition.link_bursts.empty()) {
    if (config.plan != nullptr) {
      config.plan->apply_sim(config.sim);
      config.plan->apply_partition(config.partition);
    } else {
      const CompiledPlan derived =
          compile_plan(state->pipeline, config.engine, config.slo_us);
      derived.apply_sim(config.sim);
      derived.apply_partition(config.partition);
    }
    state->config = config;
  }
  state->estimate =
      estimate_fpga(state->pipeline, config.sim, config.partition,
                    config.board, /*run_cycle_sim=*/!config.fast_estimate);
  if (config.engine.verify) {
    // The estimator chose a placement; prove it feasible (MaxRing link
    // rates and per-DFE resource totals) before the engine is built.
    Report placement_report;
    check_partition(state->pipeline, state->estimate.partition,
                    config.partition, placement_report);
    enforce(placement_report, context);
  }
  if (config.make_engine) {
    state->engine =
        config.make_engine(state->pipeline, state->params, config.engine);
  } else if (config.linked) {
    LinkedEngineOptions linked = *config.linked;
    // The session's engine options (plan, faults, replica identity,
    // pinning) win; the LinkedEngine takes the plan's cut when `linked`
    // names none.
    linked.engine = config.engine;
    state->engine = std::make_unique<EngineRunner<LinkedEngine>>(
        "linked", state->pipeline, state->params, std::move(linked));
  } else {
    state->engine = std::make_unique<EngineRunner<StreamEngine>>(
        "engine", state->pipeline, state->params, config.engine);
  }
  return DfeSession(std::move(state));
}

DfeSession DfeSession::load(const std::string& path, SessionConfig config) {
  LoadedNetwork net = load_network(path);
  return compile(net.spec, std::move(net.params), config);
}

IntTensor DfeSession::infer(const IntTensor& image) {
  std::vector<IntTensor> out = infer_batch({&image, 1});
  return std::move(out.front());
}

std::vector<IntTensor> DfeSession::infer_batch(
    std::span<const IntTensor> images, StreamEngine::RunStats* stats) {
  return state_->engine->infer_batch(images, stats);
}

void DfeSession::cancel() { state_->engine->cancel(); }

int DfeSession::classify(const IntTensor& image) {
  return ReferenceExecutor::argmax(infer(image));
}

const NetworkSpec& DfeSession::spec() const { return state_->spec; }
const Pipeline& DfeSession::pipeline() const { return state_->pipeline; }
const NetworkParams& DfeSession::params() const { return state_->params; }
const PartitionResult& DfeSession::placement() const {
  return state_->estimate.partition;
}
const FpgaRunEstimate& DfeSession::estimate() const {
  return state_->estimate;
}
std::string_view DfeSession::kind() const { return state_->engine->name(); }

std::string DfeSession::report() const {
  const State& s = *state_;
  std::ostringstream os;
  os << summarize(s.pipeline) << "\n";
  os << "runs on: " << s.engine->name() << "\n";
  os << "placement: " << s.estimate.num_dfes << " DFE(s) on "
     << s.config.board.name << "\n";
  Table t({"DFE", "kernels", "utilization"});
  for (std::size_t k = 0; k < s.estimate.partition.dfes.size(); ++k) {
    const auto& d = s.estimate.partition.dfes[k];
    t.add_row({Table::integer(static_cast<std::int64_t>(k)),
               s.pipeline.node(d.first_node).name + " .. " +
                   s.pipeline.node(d.last_node).name,
               Table::num(d.utilization, 2)});
  }
  t.print(os);
  for (const auto& cut : s.estimate.partition.cuts) {
    os << "  link after " << s.pipeline.node(cut.after_node).name << ": "
       << Table::num(cut.required_mbps, 1) << " Mbps\n";
  }
  os << "timing: " << s.estimate.clocks_per_image << " clocks/image, "
     << Table::num(1e3 * s.estimate.seconds_per_image, 2) << " ms ("
     << Table::num(s.estimate.images_per_second, 1) << " fps @ "
     << Table::num(s.config.sim.clock_hz / 1e6, 0) << " MHz)\n";
  os << "power:  " << Table::num(s.estimate.power_w, 1) << " W, energy "
     << Table::num(1e3 * s.estimate.energy_per_image_j, 1)
     << " mJ per image\n";
  return os.str();
}

}  // namespace qnn
