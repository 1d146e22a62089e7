#include "dataflow/engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "plan/fifo_plan.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

/// Streams the batch into the pipeline input rings straight from the
/// image tensors, one image tail per ring transaction — the DMA side of
/// the depth-first pixel order (§III-B1b). A segment that starts with a
/// BnAct gets its codes from the feeder's port.
class FeederTask final : public Kernel {
 public:
  FeederTask(std::span<const IntTensor> images, PortRings outs)
      : Kernel("feeder"), images_(images), out_(std::move(outs)) {}

  StepResult step() override {
    for (; img_ < images_.size(); ++img_) {
      if (!out_.flush(images_[img_].flat())) return StepResult::kBlocked;
    }
    out_.close();
    return StepResult::kDone;
  }

  void bind_ready(ReadyHook* hook, int task) override {
    out_.bind(hook, task);
  }

 private:
  std::span<const IntTensor> images_;
  OutStage out_;
  std::size_t img_ = 0;
};

/// Pops the output stream directly into one tensor per image, then checks
/// the end-of-stream protocol (no trailing values).
class CollectorTask final : public Kernel {
 public:
  CollectorTask(std::size_t count, Shape shape, Stream& in,
                std::vector<IntTensor>& outputs)
      : Kernel("collector"),
        count_(count),
        shape_(shape),
        in_(in),
        outputs_(outputs) {}

  StepResult step() override {
    bool progressed = false;
    while (outputs_.size() < count_) {
      if (!open_) {
        cur_ = IntTensor(shape_);
        pos_ = 0;
        open_ = true;
      }
      const std::size_t n =
          in_.try_pop_burst(cur_.flat().subspan(pos_));
      if (n == 0) {
        QNN_CHECK(!in_.drained(), "output stream ended early");
        starve_.starved(in_);
        return progressed ? StepResult::kProgress : StepResult::kBlocked;
      }
      starve_.fed();
      progressed = true;
      pos_ += n;
      if (pos_ == static_cast<std::size_t>(cur_.size())) {
        outputs_.push_back(std::move(cur_));
        open_ = false;
      }
    }
    // All images collected; any further value is a protocol error.
    std::int32_t extra = 0;
    QNN_CHECK(in_.try_pop_burst({&extra, 1}) == 0,
              "trailing values on output");
    if (in_.drained()) return StepResult::kDone;
    return progressed ? StepResult::kProgress : StepResult::kBlocked;
  }

  void bind_ready(ReadyHook* hook, int task) override {
    in_.bind_consumer(hook, task);
  }

 private:
  std::size_t count_;
  Shape shape_;
  Stream& in_;
  std::vector<IntTensor>& outputs_;
  IntTensor cur_;
  std::size_t pos_ = 0;
  bool open_ = false;
  StarveEpisode starve_;
};

}  // namespace

Stream& StreamEngine::make_stream(std::size_t capacity, int bits,
                                  std::string name) {
  streams_.push_back(
      std::make_unique<Stream>(capacity, bits, std::move(name)));
  return *streams_.back();
}

StreamEngine::StreamEngine(const Pipeline& pipeline,
                           const NetworkParams& params, EngineOptions options)
    : StreamEngine(pipeline, params, std::move(options), {}, nullptr) {}

StreamEngine::StreamEngine(const Pipeline& pipeline,
                           const NetworkParams& params, EngineOptions options,
                           std::span<const LinkCut> cuts,
                           FaultInjector* faults)
    : pipeline_(pipeline),
      params_(params),
      options_(std::move(options)),
      executor_(options_.pool_threads, options_.pin_threads,
                options_.pin_offset) {
  if (options_.verify) {
    // The Maxeler toolchain rejects malformed kernel graphs at compile
    // time; this is our equivalent. Every defect the engine would hit as
    // a hang, crash or poisoned stream becomes a structured error here —
    // run it before validate() so failures carry QNN-Dxxx codes.
    enforce(verify_graph(pipeline, &params, options_, cuts), "StreamEngine");
  }
  pipeline_.validate();

  // All FIFO sizing lives in the plan layer (plan/fifo_plan.h) — the same
  // plan the analyzer proves deadlock-free is the one built here, stream
  // for stream, including the per-edge burst each kernel's input side
  // moves per ring transaction (one row by default, capped by an explicit
  // `burst` and by a user FIFO — QNN-D302) and the two rings of every
  // link cut. A pre-built CompiledPlan supplies its
  // streams verbatim; otherwise the plan is derived on the spot.
  const FifoPlan plan = engine_fifos(pipeline, options_, cuts);

  // Input port streams of every node, with the planned burst granularity
  // of each edge, and the output port of every task. A BnAct is never a
  // task: a ring out of one is written, its codes mapped on the way, by
  // the task that writes the BnAct's input (ring_writer) — a node kernel,
  // the feeder, or the pump of a cut right before it.
  const auto node_count = static_cast<std::size_t>(pipeline.size());
  std::vector<Stream*> main_in(node_count, nullptr);
  std::vector<Stream*> skip_in(node_count, nullptr);
  std::vector<std::size_t> main_burst(node_count, plan.burst);
  std::vector<std::size_t> skip_burst(node_count, plan.burst);
  std::vector<PortRings> node_port(node_count, PortRings{});
  std::vector<PortRings> pump_port(cuts.size(), PortRings{});
  std::vector<Stream*> link_egress(cuts.size(), nullptr);

  for (const PlannedStream& ps : plan.streams) {
    Stream& s = make_stream(ps.capacity, ps.bits, ps.name);
    if (ps.consumer >= 0) {
      const auto c = static_cast<std::size_t>(ps.consumer);
      QNN_CHECK(c < node_count &&
                    pipeline.node(ps.consumer).kind != NodeKind::BnAct,
                "the plan wires a ring into node " +
                    std::to_string(ps.consumer) +
                    ", which is no task (a BnAct is never one)");
      (ps.to_skip_port ? skip_in : main_in)[c] = &s;
      (ps.to_skip_port ? skip_burst : main_burst)[c] = ps.burst;
    } else if (ps.role == PlannedStream::Role::kLinkOut) {
      link_egress.at(static_cast<std::size_t>(ps.link)) = &s;
    } else {
      QNN_CHECK(output_stream_ == nullptr, "more than one output stream");
      output_stream_ = &s;
    }
    const RingWriter w = ring_writer(pipeline, plan, ps);
    QNN_CHECK(w.node < pipeline.size(), "ring " + ps.name + " has no writer");
    PortRings& port =
        w.link >= 0 ? pump_port.at(static_cast<std::size_t>(w.link))
        : w.node < 0 ? input_port_
                     : node_port[static_cast<std::size_t>(w.node)];
    if (w.bnacts.empty()) {
      port.raw.push_back(&s);
      continue;
    }
    // One port act per BnAct, however many rings take its codes.
    int from = -1;
    for (const int b : w.bnacts) {
      const Node& act = pipeline.node(b);
      const auto it = std::find_if(
          port.acts.begin(), port.acts.end(),
          [&](const PortAct& a) { return a.node == &act; });
      if (it != port.acts.end()) {
        from = static_cast<int>(it - port.acts.begin());
        continue;
      }
      port.acts.push_back(
          PortAct{&act, &params.bnact(act).thresholds, from, {}});
      from = static_cast<int>(port.acts.size()) - 1;
    }
    port.acts[static_cast<std::size_t>(from)].rings.push_back(&s);
  }
  QNN_CHECK(output_stream_ != nullptr, "output stream not wired");

  // A conv reads its input as unsigned codes of input_bits bits (its line
  // buffer keeps only those bits); any other first node reads the values
  // as the input ring holds them.
  const bool codes = std::ranges::any_of(pipeline.nodes, [](const Node& n) {
    return n.main_from < 0 && n.kind == NodeKind::Conv;
  });
  input_width_ = pipeline.input_bits + (codes ? 0 : 1);
  input_offset_ = codes || pipeline.input_bits >= 32
                      ? 0U
                      : 1U << pipeline.input_bits;

  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    const auto idx = static_cast<std::size_t>(i);
    Stream* in = main_in[idx];
    PortRings& out = node_port[idx];
    const std::size_t burst = main_burst[idx];
    if (n.kind != NodeKind::BnAct) {
      QNN_CHECK(in != nullptr && (!out.raw.empty() || !out.acts.empty()),
                "node " + n.name + " not fully wired");
    }
    switch (n.kind) {
      case NodeKind::Conv:
        kernels_.push_back(std::make_unique<ConvKernel>(
            n, params.conv(n).weights, *in, std::move(out), burst));
        break;
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        kernels_.push_back(
            std::make_unique<PoolKernel>(n, *in, std::move(out), burst));
        break;
      case NodeKind::BnAct:
        break;  // evaluated by the port that writes its input
      case NodeKind::Add: {
        Stream* skip = skip_in[idx];
        QNN_CHECK(skip != nullptr, "add node " + n.name + " missing skip");
        kernels_.push_back(std::make_unique<AddKernel>(
            n, *in, *skip, std::move(out), burst, skip_burst[idx]));
        break;
      }
    }
    // A cut's pump follows its producer, keeping the task list in
    // topological order for the executor's home-deque partition.
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      if (cuts[k].after_node != i) continue;
      QNN_CHECK(link_egress[k] != nullptr,
                "link " + cuts[k].config.name + " not fully wired");
      auto pump = std::make_unique<LinkPump>(
          cuts[k], static_cast<std::size_t>(n.out.elems()), *link_egress[k],
          std::move(pump_port[k]), abort_);
      pumps_.push_back(pump.get());
      kernels_.push_back(std::move(pump));
    }
  }
  QNN_CHECK(pumps_.size() == cuts.size(), "link cut after an unknown node");

  // Fault-injection sites are registered in construction order (streams in
  // plan order, then node and pump kernels), which is deterministic
  // per graph — FaultEvent::target_index is an ordinal into this order.
  injector_ = faults;
  if (injector_ == nullptr && !options_.faults.empty()) {
    own_injector_ = std::make_unique<FaultInjector>(options_.faults,
                                                    options_.fault_replica);
    injector_ = own_injector_.get();
  }
  if (injector_ != nullptr) {
    for (auto& s : streams_) {
      s->set_fault(injector_->register_stream(s->name()));
    }
    for (auto& k : kernels_) {
      k->set_fault(injector_->register_kernel(k->name()));
    }
  }
}

StreamEngine::~StreamEngine() = default;

std::vector<IntTensor> StreamEngine::run(std::span<const IntTensor> images,
                                         RunStats* stats) {
  std::vector<IntTensor> outputs;
  run_collecting(images, outputs, stats);
  return outputs;
}

void StreamEngine::run_collecting(std::span<const IntTensor> images,
                                  std::vector<IntTensor>& outputs,
                                  RunStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const IntTensor& img : images) {
    QNN_CHECK(img.shape() == pipeline_.input,
              "image shape " + img.shape().str() + " != network input " +
                  pipeline_.input.str());
    if (input_width_ >= 32) continue;
    // One OR-reduction over the image; the value is found only to name it.
    const auto off = [this](std::int32_t v) {
      return static_cast<std::uint32_t>(v) + input_offset_;
    };
    std::uint32_t any = 0;
    for (const std::int32_t v : img.flat()) any |= off(v);
    if ((any >> input_width_) == 0) continue;
    const std::int32_t bad =
        *std::ranges::find_if(img.flat(), [&](std::int32_t v) {
          return (off(v) >> input_width_) != 0;
        });
    const std::int64_t lo = -static_cast<std::int64_t>(input_offset_);
    throw Error("input value " + std::to_string(bad) + " outside [" +
                std::to_string(lo) + ", " +
                std::to_string(lo + (std::int64_t{1} << input_width_)) +
                "), what " + std::to_string(pipeline_.input_bits) +
                "-bit input carries exactly");
  }

  // The engine is reusable: each run starts from pristine streams and
  // kernels, even after a run that threw or was cancelled.
  abort_.store(false, std::memory_order_relaxed);
  for (auto& s : streams_) s->reset();
  for (auto& k : kernels_) k->reset();

  const std::uint64_t fired_before = injector_ ? injector_->fired() : 0;
  if (own_injector_) {
    own_injector_->begin_run();
    if (own_injector_->crash_now()) {
      // Board lost before streaming anything: nothing is in flight, the
      // engine stays pristine for the next run.
      throw Error("injected fault: replica crash (run " +
                  std::to_string(own_injector_->runs_begun() - 1) + ")");
    }
  }

  FeederTask feeder(images, input_port_);
  outputs.clear();
  outputs.reserve(images.size());
  CollectorTask collector(images.size(), pipeline_.output_shape(),
                          *output_stream_, outputs);

  std::vector<Kernel*> tasks;
  tasks.reserve(kernels_.size() + 2);
  tasks.push_back(&feeder);
  for (auto& k : kernels_) tasks.push_back(k.get());
  tasks.push_back(&collector);
  executor_.run(tasks, abort_);

  if (stats != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    stats->wall_seconds = elapsed.count();
    stats->images_per_second =
        elapsed.count() > 0.0
            ? static_cast<double>(images.size()) / elapsed.count()
            : 0.0;
    stats->values_streamed = 0;
    stats->stream_transactions = 0;
    stats->push_stalls = 0;
    stats->pop_stalls = 0;
    stats->faults_injected = injector_ ? injector_->fired() - fired_before : 0;
    for (const auto& s : streams_) {
      stats->values_streamed += s->pushed();
      stats->stream_transactions += s->transactions();
      stats->push_stalls += s->push_stalls();
      stats->pop_stalls += s->pop_stalls();
    }
  }
}

std::vector<LinkStats> StreamEngine::link_stats() const {
  std::vector<LinkStats> out;
  out.reserve(pumps_.size());
  for (const LinkPump* p : pumps_) out.push_back(p->stats());
  return out;
}

IntTensor StreamEngine::run_one(const IntTensor& image) {
  auto out = run(std::span<const IntTensor>(&image, 1));
  return std::move(out.front());
}

std::vector<std::pair<std::string, std::uint64_t>>
StreamEngine::stream_traffic() const {
  std::vector<std::pair<std::string, std::uint64_t>> traffic;
  traffic.reserve(streams_.size());
  for (const auto& s : streams_) {
    traffic.emplace_back(s->name(), s->pushed());
  }
  return traffic;
}

}  // namespace qnn
