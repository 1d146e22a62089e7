#include "plan/compiled_plan.h"

#include <thread>

namespace qnn {
namespace {

/// FNV-1a, 64-bit. Stable across platforms (explicit widths, no
/// endianness-dependent reinterpretation).
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void mix_i(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

void mix_shape(Fnv1a& f, const Shape& s) {
  f.mix_i(s.h);
  f.mix_i(s.w);
  f.mix_i(s.c);
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xfU];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::uint64_t model_hash(const Pipeline& pipeline) {
  Fnv1a f;
  mix_shape(f, pipeline.input);
  f.mix_i(pipeline.input_bits);
  f.mix_i(pipeline.act_bits);
  f.mix_i(pipeline.size());
  for (const Node& n : pipeline.nodes) {
    f.mix_i(static_cast<std::int64_t>(n.kind));
    f.mix_i(n.main_from);
    f.mix_i(n.skip_from);
    mix_shape(f, n.in);
    mix_shape(f, n.out);
    f.mix_i(n.in_bits);
    f.mix_i(n.out_bits);
    f.mix_i(n.k);
    f.mix_i(n.stride);
    f.mix_i(n.pad);
    f.mix_i(n.param);
  }
  return f.h;
}

std::string machine_signature() {
#if defined(__x86_64__) || defined(_M_X64)
  const char* arch = "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  const char* arch = "aarch64";
#else
  const char* arch = "generic";
#endif
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::string(arch) + "-" + std::to_string(cores) + "c";
}

std::string PlanKey::str() const {
  return "m" + hex64(model_hash) + "-" + machine + "-slo" +
         std::to_string(slo_us);
}

PlanKey plan_key(const Pipeline& pipeline, std::int64_t slo_us) {
  return PlanKey{model_hash(pipeline), machine_signature(), slo_us};
}

void CompiledPlan::apply_engine(EngineOptions& options) const {
  options.fifo_capacity = fifo_capacity;
  options.burst = burst;
  options.adaptive_burst = adaptive_burst;
  options.pool_threads = pool_threads;
  options.pin_threads = pin_threads;
  options.pin_offset = pin_offset;
}

void CompiledPlan::apply_sim(SimConfig& sim) const {
  if (sim.link_bursts.empty()) sim.link_bursts = link_bursts;
  if (sim.cut_after_nodes.empty()) sim.cut_after_nodes = cut_after_nodes;
}

void CompiledPlan::apply_partition(PartitionConfig& partition) const {
  if (partition.link_bursts.empty()) partition.link_bursts = link_bursts;
}

CompiledPlan compile_plan(const Pipeline& pipeline,
                          const EngineOptions& options, std::int64_t slo_us,
                          const std::string& backend) {
  CompiledPlan plan;
  plan.model = pipeline.name;
  plan.key = plan_key(pipeline, slo_us);
  plan.fifo_capacity = options.fifo_capacity;
  plan.burst = options.burst;
  plan.adaptive_burst = options.adaptive_burst;
  plan.pool_threads = options.pool_threads;
  plan.pin_threads = options.pin_threads;
  plan.pin_offset = options.pin_offset;
  plan.backend = backend;
  plan.fifos = plan_fifos(pipeline, options);
  // The link models price every edge a cut could sever, the edges into
  // BnActs (which have no ring) included.
  for (const PlannedStream& ps : plan_edges(pipeline, options)) {
    if (ps.consumer < 0 || ps.burst == 0) continue;
    plan.link_bursts.push_back(
        SimConfig::EdgeBurst{ps.consumer, ps.to_skip_port, ps.burst});
  }
  return plan;
}

}  // namespace qnn
