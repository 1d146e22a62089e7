#include "dataflow/linked_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "plan/compiled_plan.h"
#include "verify/graph_check.h"
#include "verify/link_check.h"

namespace qnn {

namespace {

using Clock = std::chrono::steady_clock;

/// Seed of link 0's jittered retransmit backoff; link k adds k times the
/// golden-ratio constant so parallel links never retry in lockstep.
constexpr std::uint64_t kLinkBackoffSeed = 1;

}  // namespace

PipelineSegment extract_segment(const Pipeline& pipeline,
                                const NetworkParams& params, int first,
                                int last) {
  QNN_CHECK(first >= 0 && last >= first && last < pipeline.size(),
            "extract_segment: node range out of bounds");
  PipelineSegment seg;
  seg.pipeline.name = pipeline.name + "/seg[" + std::to_string(first) + ".." +
                      std::to_string(last) + "]";
  seg.pipeline.act_bits = pipeline.act_bits;
  if (first == 0) {
    seg.pipeline.input = pipeline.input;
    seg.pipeline.input_bits = pipeline.input_bits;
  } else {
    const Node& boundary = pipeline.node(first - 1);
    seg.pipeline.input = boundary.out;
    seg.pipeline.input_bits = boundary.out_bits;
  }
  for (int i = first; i <= last; ++i) {
    Node n = pipeline.node(i);
    QNN_CHECK(n.main_from >= first - 1,
              "extract_segment: main edge into '" + n.name +
                  "' crosses the cut (not a chain cut)");
    QNN_CHECK(n.skip_from < 0 || n.skip_from >= first,
              "extract_segment: skip edge into '" + n.name +
                  "' crosses the cut");
    n.main_from -= first;  // first-1 becomes -1: the segment input
    if (n.skip_from >= 0) n.skip_from -= first;
    if (n.param >= 0) {
      if (n.kind == NodeKind::Conv) {
        seg.params.convs.push_back(
            params.convs[static_cast<std::size_t>(n.param)]);
        n.param = static_cast<int>(seg.params.convs.size()) - 1;
      } else if (n.kind == NodeKind::BnAct) {
        seg.params.bnacts.push_back(
            params.bnacts[static_cast<std::size_t>(n.param)]);
        n.param = static_cast<int>(seg.params.bnacts.size()) - 1;
      }
    }
    seg.pipeline.nodes.push_back(std::move(n));
  }
  seg.pipeline.num_conv_params = static_cast<int>(seg.params.convs.size());
  seg.pipeline.num_bnact_params = static_cast<int>(seg.params.bnacts.size());
  seg.pipeline.validate();
  return seg;
}

struct LinkedEngine::Impl {
  const Pipeline& pipeline;
  const NetworkParams& params;
  LinkedEngineOptions options;
  // Owned copy of options.engine.plan: failover rebuilds the graph long
  // after the caller's plan may be gone.
  std::unique_ptr<const CompiledPlan> plan;

  std::vector<int> original_cuts;  // physical links, fixed for the lifetime
  std::unique_ptr<FaultInjector> injector;  // stream, kernel and link sites
  std::vector<LinkFaultSite*> sites;  // by physical link ordinal

  std::mutex run_mu;          // serializes run()
  mutable std::mutex rt_mu;   // guards the three fields below
  std::unique_ptr<StreamEngine> engine;  // the graph of current_cuts
  std::vector<int> current_cuts;         // possibly degraded
  std::vector<double> link_health;       // by physical link ordinal
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> failovers_total{0};

  Impl(const Pipeline& p, const NetworkParams& prm, LinkedEngineOptions o)
      : pipeline(p), params(prm), options(std::move(o)) {
    if (options.engine.plan != nullptr) {
      plan = std::make_unique<const CompiledPlan>(*options.engine.plan);
      options.engine.plan = plan.get();
    }
  }

  void event(const std::string& what) {
    if (options.on_event) options.on_event(what);
  }

  /// The link that carries the cut after `after` as link `k`: framed at
  /// the planned burst of the crossing stream, the configured override,
  /// or a 256-value default.
  [[nodiscard]] LinkCut link_cut(int after, std::size_t k) const {
    const std::vector<CrossingStream> crossing =
        crossing_streams(pipeline, after, &options.partition.link_bursts);
    LinkCut cut;
    cut.after_node = after;
    cut.frame_values = options.frame_values;
    if (cut.frame_values == 0 && !crossing.empty() && crossing[0].burst > 0) {
      cut.frame_values = crossing[0].burst;
    }
    if (cut.frame_values == 0) cut.frame_values = 256;
    LinkConfig& lc = cut.config;
    lc.name = "link" + std::to_string(k);
    lc.bits = crossing.empty() ? 32 : crossing[0].bits;
    lc.link_bits_per_cycle = options.partition.link_bits_per_cycle;
    lc.clock_hz = options.partition.clock_hz;
    lc.ack_timeout_us = options.ack_timeout_us;
    lc.max_retransmits = options.max_retransmits;
    lc.retransmit_backoff_us = options.retransmit_backoff_us;
    lc.backoff_seed = kLinkBackoffSeed + k * 0x9e3779b97f4a7c15ULL;
    cut.fault = k < sites.size() ? sites[k] : nullptr;
    return cut;
  }

  /// Replace the graph with the one for `cuts`.
  void rebuild(const std::vector<int>& cuts) {
    std::vector<LinkCut> links;
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      links.push_back(link_cut(cuts[k], k));
    }
    {
      // The old graph's stream and kernel fault sites die with it.
      const std::lock_guard<std::mutex> lock(rt_mu);
      engine.reset();
    }
    if (injector) injector->clear_graph_sites();
    std::unique_ptr<StreamEngine> next(new StreamEngine(
        pipeline, params, options.engine, links, injector.get()));
    const std::lock_guard<std::mutex> lock(rt_mu);
    engine = std::move(next);
    current_cuts = cuts;
  }

  /// D42x proof gate for a candidate (possibly degraded) cut list.
  [[nodiscard]] bool proved(const std::vector<int>& cuts,
                            const PartitionConfig& cfg) {
    Report report;
    check_link_plan(pipeline, cuts, cfg, report);
    if (!report.ok()) {
      event("failover: candidate plan refused: " + report.summary());
    }
    return report.ok();
  }

  /// The failover ladder: derate the dead link, then try (1) an optimal
  /// repartition under the derated health, (2) the prefix of the current
  /// cuts that avoids the dead link, (3) the single-DFE plan.
  void failover(int dead) {
    PartitionConfig cfg = options.partition;
    {
      const std::lock_guard<std::mutex> lock(rt_mu);
      link_health[static_cast<std::size_t>(dead)] = 0.0;
      if (cfg.link_health.size() < link_health.size()) {
        cfg.link_health.resize(link_health.size(), 1.0);
      }
      for (std::size_t k = 0; k < link_health.size(); ++k) {
        cfg.link_health[k] = std::min(cfg.link_health[k], link_health[k]);
      }
    }
    std::vector<int> cuts;
    const PartitionResult res = partition_optimal(pipeline, cfg);
    if (res.feasible() && !res.cuts.empty()) {
      for (const CutInfo& c : res.cuts) cuts.push_back(c.after_node);
    }
    if (!cuts.empty() && proved(cuts, cfg)) {
      rebuild(cuts);
      event("failover: repartitioned to " + std::to_string(cuts.size() + 1) +
            " segment(s)");
      return;
    }
    cuts.assign(current_cuts.begin(),
                current_cuts.begin() +
                    std::min<std::size_t>(static_cast<std::size_t>(dead),
                                          current_cuts.size()));
    if (!cuts.empty() && proved(cuts, cfg)) {
      rebuild(cuts);
      event("failover: degraded to the healthy prefix (" +
            std::to_string(cuts.size() + 1) + " segment(s))");
      return;
    }
    rebuild({});
    event("failover: single-DFE fallback plan armed");
  }

  [[noreturn]] static void cancelled() {
    throw Error("LinkedEngine: run cancelled");
  }
};

LinkedEngine::LinkedEngine(const Pipeline& pipeline,
                           const NetworkParams& params,
                           LinkedEngineOptions options)
    : impl_(std::make_unique<Impl>(pipeline, params, std::move(options))) {
  Impl& im = *impl_;
  std::vector<int> cuts = im.options.cut_after_nodes;
  if (cuts.empty() && im.plan != nullptr) cuts = im.plan->cut_after_nodes;
  if (cuts.empty()) {
    const PartitionResult res = partition_optimal(pipeline, im.options.partition);
    if (res.feasible()) {
      for (const CutInfo& c : res.cuts) cuts.push_back(c.after_node);
    }
  }
  // Prove the plan before arming it (D420 dead links, D422 chain-only
  // cuts).
  Report report;
  check_link_plan(pipeline, cuts, im.options.partition, report);
  enforce(report, "LinkedEngine(" + pipeline.name + ")");
  im.original_cuts = cuts;
  im.link_health.assign(cuts.size(), 1.0);
  if (!im.options.engine.faults.empty()) {
    im.injector = std::make_unique<FaultInjector>(
        im.options.engine.faults, im.options.engine.fault_replica);
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      im.sites.push_back(
          im.injector->register_link("link" + std::to_string(k)));
    }
  }
  im.rebuild(cuts);
}

LinkedEngine::~LinkedEngine() = default;

std::vector<IntTensor> LinkedEngine::run(std::span<const IntTensor> images,
                                         StreamEngine::RunStats* stats) {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> run_lock(im.run_mu);
  im.abort.store(false, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  std::uint64_t faults_before = 0;
  if (im.injector) {
    faults_before = im.injector->fired();
    im.injector->begin_run();
    if (im.injector->crash_now()) {
      throw Error("injected fault: linked replica crash (run " +
                  std::to_string(im.injector->runs_begun() - 1) + ")");
    }
  }
  const std::size_t n = images.size();
  std::vector<IntTensor> outputs;
  outputs.reserve(n);
  StreamEngine::RunStats last;
  std::uint64_t frames = 0;
  std::uint64_t retrans = 0;
  std::uint64_t failovers_this_run = 0;
  while (outputs.size() < n) {
    if (im.abort.load(std::memory_order_relaxed)) Impl::cancelled();
    // Only this thread replaces the graph, so the pointer stays valid for
    // the attempt without holding rt_mu.
    StreamEngine* engine = nullptr;
    {
      const std::lock_guard<std::mutex> lock(im.rt_mu);
      engine = im.engine.get();
    }
    QNN_CHECK(engine != nullptr, "LinkedEngine: no plan armed");
    std::vector<IntTensor> got;
    int dead = -1;
    try {
      engine->run_collecting(images.subspan(outputs.size()), got, &last);
    } catch (const LinkDeadError&) {
      const std::vector<LinkStats> links = engine->link_stats();
      for (std::size_t k = 0; k < links.size() && dead < 0; ++k) {
        if (links[k].dead) dead = static_cast<int>(k);
      }
      if (dead < 0) throw;
    } catch (...) {
      if (im.abort.load(std::memory_order_relaxed)) Impl::cancelled();
      throw;
    }
    for (const LinkStats& ls : engine->link_stats()) {
      frames += ls.frames_delivered;
      retrans += ls.retransmits;
    }
    // Images collected before a link death are kept; only the rest replay.
    for (IntTensor& t : got) outputs.push_back(std::move(t));
    if (im.abort.load(std::memory_order_relaxed)) Impl::cancelled();
    if (dead < 0) continue;
    // Permanent link death: derate, recompile a degraded plan, and replay
    // the images this attempt did not collect — zero lost work.
    ++failovers_this_run;
    im.failovers_total.fetch_add(1, std::memory_order_relaxed);
    im.event("link" + std::to_string(dead) +
             " escalated to dead; failing over");
    im.failover(dead);
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (stats != nullptr) {
    *stats = last;
    stats->wall_seconds = wall;
    stats->images_per_second =
        wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
    stats->link_frames = frames;
    stats->link_retransmits = retrans;
    stats->link_failovers = failovers_this_run;
    stats->links = static_cast<int>(im.original_cuts.size());
    const std::lock_guard<std::mutex> lock(im.rt_mu);
    const std::size_t shown =
        std::min<std::size_t>(im.link_health.size(), stats->link_health.size());
    for (std::size_t k = 0; k < shown; ++k) {
      stats->link_health[k] = im.link_health[k];
    }
    stats->faults_injected =
        im.injector ? im.injector->fired() - faults_before : 0;
  }
  return outputs;
}

IntTensor LinkedEngine::run_one(const IntTensor& image) {
  std::vector<IntTensor> out =
      run(std::span<const IntTensor>(&image, 1), nullptr);
  return std::move(out[0]);
}

void LinkedEngine::cancel() {
  Impl& im = *impl_;
  im.abort.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(im.rt_mu);
  if (im.engine) im.engine->cancel();
}

int LinkedEngine::segments() const {
  const std::lock_guard<std::mutex> lock(impl_->rt_mu);
  return static_cast<int>(impl_->current_cuts.size()) + 1;
}

int LinkedEngine::links() const {
  return static_cast<int>(impl_->original_cuts.size());
}

std::vector<int> LinkedEngine::cut_after_nodes() const {
  const std::lock_guard<std::mutex> lock(impl_->rt_mu);
  return impl_->current_cuts;
}

bool LinkedEngine::link_healthy(int link) const {
  const std::lock_guard<std::mutex> lock(impl_->rt_mu);
  return link >= 0 &&
         static_cast<std::size_t>(link) < impl_->link_health.size() &&
         impl_->link_health[static_cast<std::size_t>(link)] > 0.0;
}

std::uint64_t LinkedEngine::plan_failovers() const {
  return impl_->failovers_total.load(std::memory_order_relaxed);
}

}  // namespace qnn
