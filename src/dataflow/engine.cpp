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
/// the depth-first pixel order (§III-B1b).
class FeederTask final : public Kernel {
 public:
  FeederTask(std::span<const IntTensor> images, std::vector<Stream*> outs)
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

  // Input port streams of every node and output rings of every producer,
  // filled as edges are created, with the planned burst granularity of
  // each edge. A fanned-out producer gets one ring per consumer port.
  const auto node_count = static_cast<std::size_t>(pipeline.size());
  std::vector<Stream*> main_in(node_count, nullptr);
  std::vector<Stream*> skip_in(node_count, nullptr);
  std::vector<std::vector<Stream*>> node_out(node_count);
  std::vector<std::size_t> main_burst(node_count, plan.burst);
  std::vector<std::size_t> skip_burst(node_count, plan.burst);
  std::vector<Stream*> link_egress(cuts.size(), nullptr);
  std::vector<Stream*> link_ingress(cuts.size(), nullptr);

  auto producer_out = [&](int p) -> std::vector<Stream*>& {
    return p < 0 ? input_streams_ : node_out[static_cast<std::size_t>(p)];
  };
  auto attach = [&](const PlannedStream& ps, Stream& s) {
    if (ps.to_skip_port) {
      skip_in[static_cast<std::size_t>(ps.consumer)] = &s;
      skip_burst[static_cast<std::size_t>(ps.consumer)] = ps.burst;
    } else {
      main_in[static_cast<std::size_t>(ps.consumer)] = &s;
      main_burst[static_cast<std::size_t>(ps.consumer)] = ps.burst;
    }
  };

  for (const PlannedStream& ps : plan.streams) {
    Stream& s = make_stream(ps.capacity, ps.bits, ps.name);
    switch (ps.role) {
      case PlannedStream::Role::kOutput:
        producer_out(ps.producer).push_back(&s);
        break;
      case PlannedStream::Role::kDirect:
        producer_out(ps.producer).push_back(&s);
        attach(ps, s);
        break;
      case PlannedStream::Role::kLinkOut:
        producer_out(ps.producer).push_back(&s);
        link_egress.at(static_cast<std::size_t>(ps.link)) = &s;
        break;
      case PlannedStream::Role::kLinkIn:
        attach(ps, s);
        link_ingress.at(static_cast<std::size_t>(ps.link)) = &s;
        break;
    }
  }

  const std::vector<Stream*>& last =
      node_out[static_cast<std::size_t>(pipeline.size() - 1)];
  QNN_CHECK(last.size() == 1, "output stream not wired");
  output_stream_ = last.front();

  // A conv and the BnAct it alone feeds run as one fused ConvKernel, unless
  // a link cut separates them — the plan layer's one fusion predicate.
  std::vector<int> cut_after;
  for (const LinkCut& cut : cuts) cut_after.push_back(cut.after_node);
  const auto fused = [&](int i) {
    return fuses_into_conv(pipeline, i, cut_after);
  };

  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    Stream* in = main_in[static_cast<std::size_t>(i)];
    std::vector<Stream*> out = node_out[static_cast<std::size_t>(i)];
    const std::size_t burst = main_burst[static_cast<std::size_t>(i)];
    // The BnAct this conv absorbs: its kernel writes that node's output.
    const Node* act = nullptr;
    if (n.kind == NodeKind::Conv) {
      const std::vector<int> next = pipeline.consumers(i);
      if (next.size() == 1 && fused(next.front())) {
        act = &pipeline.node(next.front());
        QNN_CHECK(out.empty(),
                  "the plan wires a stream inside fused " + act->name);
        out = node_out[static_cast<std::size_t>(next.front())];
      }
    }
    // A fused BnAct is built with its conv; nothing may feed it on its own.
    const bool absorbed = fused(i);
    QNN_CHECK(absorbed ? in == nullptr : in != nullptr && !out.empty(),
              absorbed ? "the plan wires a stream inside fused " + n.name
                       : "node " + n.name + " not fully wired");
    switch (n.kind) {
      case NodeKind::Conv:
        if (act != nullptr) {
          kernels_.push_back(std::make_unique<ConvKernel>(
              n, params.conv(n).weights, *act, params.bnact(*act).thresholds,
              *in, std::move(out), burst));
        } else {
          kernels_.push_back(std::make_unique<ConvKernel>(
              n, params.conv(n).weights, *in, std::move(out), burst));
        }
        break;
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        kernels_.push_back(
            std::make_unique<PoolKernel>(n, *in, std::move(out), burst));
        break;
      case NodeKind::BnAct:
        if (absorbed) break;
        kernels_.push_back(std::make_unique<BnActKernel>(
            n, params.bnact(n).thresholds, *in, std::move(out), burst));
        break;
      case NodeKind::Add: {
        Stream* skip = skip_in[static_cast<std::size_t>(i)];
        QNN_CHECK(skip != nullptr, "add node " + n.name + " missing skip");
        kernels_.push_back(std::make_unique<AddKernel>(
            n, *in, *skip, std::move(out), burst,
            skip_burst[static_cast<std::size_t>(i)]));
        break;
      }
    }
    // A cut's pump follows its producer, keeping the task list in
    // topological order for the executor's home-deque partition.
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      if (cuts[k].after_node != i) continue;
      QNN_CHECK(link_egress[k] != nullptr && link_ingress[k] != nullptr,
                "link " + cuts[k].config.name + " not fully wired");
      auto pump = std::make_unique<LinkPump>(
          cuts[k], static_cast<std::size_t>(n.out.elems()), *link_egress[k],
          *link_ingress[k], abort_);
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

  FeederTask feeder(images, input_streams_);
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
