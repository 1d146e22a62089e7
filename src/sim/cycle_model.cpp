#include "sim/cycle_model.h"

#include <algorithm>
#include <memory>

namespace qnn {
namespace {

struct SimFifo {
  std::string name;
  std::size_t cap = 0;
  std::size_t occ = 0;
  std::size_t max_occ = 0;
  std::uint64_t total = 0;

  [[nodiscard]] bool full() const { return occ >= cap; }
  [[nodiscard]] bool empty() const { return occ == 0; }
  void push() {
    ++occ;
    max_occ = std::max(max_occ, occ);
    ++total;
  }
  void pop() {
    QNN_DCHECK(occ > 0, "pop from empty sim fifo");
    --occ;
  }
};

/// Positional (data-free) replica of WindowScanner's cursor.
class PosScanner {
 public:
  PosScanner(Shape in, int k, int stride, int pad)
      : in_(in),
        k_(k),
        stride_(stride),
        pad_(pad),
        hp_(in.h + 2 * pad),
        wp_(in.w + 2 * pad),
        out_h_(conv_out_extent(in.h, k, stride, pad)),
        out_w_(conv_out_extent(in.w, k, stride, pad)) {}

  [[nodiscard]] bool done() const { return y_ >= hp_; }
  [[nodiscard]] bool is_padding() const {
    return y_ < pad_ || y_ >= pad_ + in_.h || x_ < pad_ ||
           x_ >= pad_ + in_.w;
  }
  /// True when the current pixel (y, x) is the bottom-right corner of a
  /// valid window (per-channel completions happen throughout this pixel).
  [[nodiscard]] bool at_corner_pixel() const {
    const int ry = y_ - (k_ - 1);
    const int rx = x_ - (k_ - 1);
    return ry >= 0 && rx >= 0 && ry % stride_ == 0 && rx % stride_ == 0 &&
           ry / stride_ < out_h_ && rx / stride_ < out_w_;
  }

  /// Advance one pixel; true when the full window completed (the current
  /// pixel was the bottom-right corner of a valid window).
  bool advance() {
    const bool window = at_corner_pixel();
    if (++x_ == wp_) {
      x_ = 0;
      ++y_;
    }
    return window;
  }

  void reset() { y_ = x_ = 0; }

 private:
  Shape in_;
  int k_;
  int stride_;
  int pad_;
  int hp_;
  int wp_;
  int out_h_;
  int out_w_;
  int y_ = 0;
  int x_ = 0;
};

class KernelSim {
 public:
  explicit KernelSim(std::string name) { st_.name = std::move(name); }
  virtual ~KernelSim() = default;
  /// Advance one fabric clock; `now` is the global cycle counter (used by
  /// the sink for completion timestamps).
  virtual void step(std::uint64_t now) = 0;
  [[nodiscard]] const KernelStats& stats() const { return st_; }

 protected:
  KernelStats st_;
};

class SourceSim final : public KernelSim {
 public:
  SourceSim(SimFifo& out, std::int64_t values_per_image, int images)
      : KernelSim("source"), out_(out),
        remaining_(values_per_image * images) {}

  void step(std::uint64_t /*now*/) override {
    if (remaining_ == 0) return;
    if (out_.full()) {
      ++st_.stall_out;
      return;
    }
    out_.push();
    ++st_.busy;
    ++st_.outputs;
    --remaining_;
  }

 private:
  SimFifo& out_;
  std::int64_t remaining_;
};

class SinkSim final : public KernelSim {
 public:
  SinkSim(SimFifo& in, std::int64_t values_per_image, int images)
      : KernelSim("sink"), in_(in), per_image_(values_per_image),
        images_(images) {}

  void step(std::uint64_t now) override {
    if (done()) return;
    if (in_.empty()) {
      ++st_.stall_in;
      return;
    }
    in_.pop();
    ++st_.busy;
    if (++got_ == per_image_) {
      got_ = 0;
      completions_.push_back(now);
    }
  }

  [[nodiscard]] bool done() const {
    return static_cast<int>(completions_.size()) >= images_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& completions() const {
    return completions_;
  }

 private:
  SimFifo& in_;
  std::int64_t per_image_;
  int images_;
  std::int64_t got_ = 0;
  std::vector<std::uint64_t> completions_;
};

class ConvSim final : public KernelSim {
 public:
  ConvSim(const Node& n, const SimConfig& cfg, SimFifo& in, SimFifo& out,
          int images)
      : KernelSim(n.name), in_(in), out_(out),
        scan_(n.in, n.k, n.stride, n.pad),
        emit_cycles_(static_cast<std::uint64_t>(n.out.c) *
                     cfg.cycles_per_output(n)),
        images_left_(images) {
    const std::int64_t weight_bits = n.filter_shape().total_weights();
    if (weight_bits > cfg.weight_cache_capacity_bits) {
      ws_per_image_ = static_cast<std::uint64_t>(
          (weight_bits + cfg.weight_stream_bits_per_cycle - 1) /
          cfg.weight_stream_bits_per_cycle);
    }
    ws_left_ = ws_per_image_;
  }

  void step(std::uint64_t /*now*/) override {
    if (ws_left_ > 0) {  // host-streaming this image's weight bank
      --ws_left_;
      ++st_.busy;
      return;
    }
    if (emit_left_ > 0) {  // input halted: all O filters at this position
      if (emit_left_ > 1) {
        --emit_left_;
        ++st_.busy;
        return;
      }
      // Final emission cycle: the completed output pixel enters the stream.
      if (out_.full()) {
        ++st_.stall_out;
        return;
      }
      out_.push();
      ++st_.busy;
      ++st_.outputs;
      emit_left_ = 0;
      maybe_finish_image();
      return;
    }
    if (scan_.done()) return;  // finished (maybe_finish_image already ran)
    if (scan_.is_padding()) {
      const bool window = scan_.advance();
      ++st_.busy;
      if (window) {
        emit_left_ = emit_cycles_;
      } else {
        maybe_finish_image();
      }
      return;
    }
    if (in_.empty()) {
      ++st_.stall_in;
      return;
    }
    in_.pop();
    const bool window = scan_.advance();
    ++st_.busy;
    if (window) {
      emit_left_ = emit_cycles_;
    } else {
      maybe_finish_image();
    }
  }

 private:
  void maybe_finish_image() {
    if (!scan_.done() || emit_left_ > 0) return;
    if (--images_left_ > 0) {
      scan_.reset();
      ws_left_ = ws_per_image_;
    }
  }

  SimFifo& in_;
  SimFifo& out_;
  PosScanner scan_;
  std::uint64_t emit_cycles_;  // clocks spent per completed window
  int images_left_;
  std::uint64_t ws_per_image_ = 0;
  std::uint64_t ws_left_ = 0;
  std::uint64_t emit_left_ = 0;
};

class PoolSim final : public KernelSim {
 public:
  PoolSim(const Node& n, SimFifo& in, SimFifo& out, int images)
      : KernelSim(n.name), in_(in), out_(out),
        scan_(n.in, n.k, n.stride, n.pad), images_left_(images) {}

  void step(std::uint64_t /*now*/) override {
    if (scan_.done()) return;
    // Pooling emits on the same clock as the completing input (§III-B2):
    // at a corner pixel every consumed channel value yields one output.
    const bool emits = scan_.at_corner_pixel();
    if (emits && out_.full()) {
      ++st_.stall_out;
      return;
    }
    if (scan_.is_padding()) {
      scan_.advance();
    } else {
      if (in_.empty()) {
        ++st_.stall_in;
        return;
      }
      in_.pop();
      scan_.advance();
    }
    ++st_.busy;
    if (emits) {
      out_.push();
      ++st_.outputs;
    }
    if (scan_.done() && --images_left_ > 0) scan_.reset();
  }

 private:
  SimFifo& in_;
  SimFifo& out_;
  PosScanner scan_;
  int images_left_;
};

/// One-value-per-clock flow-through (BnAct and forks).
class PassSim final : public KernelSim {
 public:
  PassSim(std::string name, SimFifo& in, std::vector<SimFifo*> outs)
      : KernelSim(std::move(name)), in_(in), outs_(std::move(outs)) {}

  void step(std::uint64_t /*now*/) override {
    if (in_.empty()) {
      ++st_.stall_in;
      return;
    }
    for (SimFifo* out : outs_) {
      if (out->full()) {
        ++st_.stall_out;
        return;
      }
    }
    in_.pop();
    for (SimFifo* out : outs_) out->push();
    ++st_.busy;
    ++st_.outputs;
  }

 private:
  SimFifo& in_;
  std::vector<SimFifo*> outs_;
};

/// MaxRing serializer (§III-B6): a stream crossing to the next DFE is
/// shipped in frames of up to `frame_pixels` pixels (the planned burst
/// carried across the cut; 1 without a plan). A frame of m pixels costs
/// ceil(m * pixel_bits / link_bits_per_cycle) clocks, so a planned burst
/// pays the link-word rounding once per frame where per-pixel framing
/// pays it on every pixel. The model is a healthy link: outages,
/// corruption and retransmission are exercised on the live MaxRingLink
/// (dataflow/link.h), not replayed here.
class LinkSim final : public KernelSim {
 public:
  LinkSim(std::string name, SimFifo& in, SimFifo& out, int frame_pixels,
          std::int64_t pixel_bits, int link_bits)
      : KernelSim(std::move(name)), in_(in), out_(out),
        frame_pixels_(frame_pixels), pixel_bits_(pixel_bits),
        link_bits_(link_bits) {
    QNN_CHECK(frame_pixels_ >= 1, "link frame must hold >= 1 pixel");
    QNN_CHECK(pixel_bits_ >= 1 && link_bits_ >= 1,
              "link serialization needs positive widths");
  }

  void step(std::uint64_t /*now*/) override {
    if (holding_ > 0) {
      if (remaining_ > 0) {
        --remaining_;
        ++st_.busy;
        if (remaining_ > 0) return;
      }
      deliver();
      return;
    }
    if (in_.empty()) {
      ++st_.stall_in;
      return;
    }
    // Open a frame from whatever is available (up to the planned burst):
    // waiting for a full frame at a stream tail would deadlock.
    int taken = 0;
    while (taken < frame_pixels_ && !in_.empty()) {
      in_.pop();
      ++taken;
    }
    holding_ = taken;
    remaining_ = serialize_cycles(taken) - 1;
    ++st_.busy;
    if (remaining_ == 0) deliver();
  }

 private:
  [[nodiscard]] int serialize_cycles(int pixels) const {
    const std::int64_t bits = pixel_bits_ * pixels;
    return static_cast<int>((bits + link_bits_ - 1) / link_bits_);
  }

  /// Serialization of the held frame is complete: land its pixels as the
  /// far FIFO accepts them.
  void deliver() {
    while (holding_ > 0) {
      if (out_.full()) {
        ++st_.stall_out;
        return;
      }
      out_.push();
      ++st_.outputs;
      --holding_;
    }
  }

  SimFifo& in_;
  SimFifo& out_;
  int frame_pixels_;
  std::int64_t pixel_bits_;
  int link_bits_;
  int remaining_ = 0;
  int holding_ = 0;  // pixels of the open frame not yet delivered
};

class AddSim final : public KernelSim {
 public:
  AddSim(const Node& n, SimFifo& main, SimFifo& skip, SimFifo& out)
      : KernelSim(n.name), main_(main), skip_(skip), out_(out) {}

  void step(std::uint64_t /*now*/) override {
    if (main_.empty() || skip_.empty()) {
      ++st_.stall_in;
      return;
    }
    if (out_.full()) {
      ++st_.stall_out;
      return;
    }
    main_.pop();
    skip_.pop();
    out_.push();
    ++st_.busy;
    ++st_.outputs;
  }

 private:
  SimFifo& main_;
  SimFifo& skip_;
  SimFifo& out_;
};

}  // namespace

SimResult simulate(const Pipeline& pipeline, const SimConfig& config,
                   int images) {
  pipeline.validate();
  QNN_CHECK(images >= 2, "need >= 2 images to observe the steady interval");
  std::vector<std::unique_ptr<SimFifo>> fifos;
  auto make_fifo = [&](std::size_t cap, std::string name) -> SimFifo& {
    auto f = std::make_unique<SimFifo>();
    f->cap = cap;
    f->name = std::move(name);
    fifos.push_back(std::move(f));
    return *fifos.back();
  };

  std::vector<SimFifo*> main_in(static_cast<std::size_t>(pipeline.size()),
                                nullptr);
  std::vector<SimFifo*> skip_in(static_cast<std::size_t>(pipeline.size()),
                                nullptr);
  std::vector<std::unique_ptr<KernelSim>> kernels;

  // Mirror the threaded engine's wiring: direct edge, or fork on fan-out.
  // Skip FIFOs get capacity for a full map: the simulator *measures* the
  // occupancy they actually need, which tests compare against the paper's
  // buffer-size formula (§III-B5). Edges crossing a configured DFE cut get
  // a MaxRing serializer in between.
  int links_made = 0;
  auto crosses_cut = [&](int p, int c) {
    for (int cut : config.cut_after_nodes) {
      if (p <= cut && c > cut) return true;
    }
    return false;
  };
  auto wire = [&](int p, const Shape& shape, SimFifo*& produced) {
    std::vector<int> consumers;
    for (int j = 0; j < pipeline.size(); ++j) {
      if (pipeline.node(j).main_from == p) consumers.push_back(j);
      if (p >= 0 && pipeline.node(j).skip_from == p) consumers.push_back(j);
    }
    const std::string pname = p < 0 ? "input" : pipeline.node(p).name;
    auto capacity_for = [&](int consumer) -> std::size_t {
      const Node& n = pipeline.node(consumer);
      if (n.kind == NodeKind::Add && n.skip_from == p && n.main_from != p) {
        return static_cast<std::size_t>(shape.h) * shape.w + 64;
      }
      return config.fifo_depth;
    };
    auto attach = [&](int consumer, SimFifo& upstream) {
      const Node& n = pipeline.node(consumer);
      const bool is_main =
          n.main_from == p &&
          main_in[static_cast<std::size_t>(consumer)] == nullptr;
      SimFifo* f = &upstream;
      if (p >= 0 && crosses_cut(p, consumer)) {
        // Serialize this stream over the MaxRing in frames of the planned
        // burst (one pixel when no plan was carried across the cut).
        const Node& producer = pipeline.node(p);
        const std::int64_t pixel_bits =
            static_cast<std::int64_t>(producer.out.c) * producer.out_bits;
        const std::size_t burst_values =
            config.link_burst_values(consumer, /*to_skip_port=*/!is_main);
        const int frame_pixels = std::max<int>(
            1, static_cast<int>(
                   static_cast<std::int64_t>(burst_values) /
                   std::max<std::int64_t>(1, producer.out.c)));
        SimFifo& landed =
            make_fifo(upstream.cap, pname + "~link~" + n.name);
        kernels.push_back(std::make_unique<LinkSim>(
            "link_" + pname + "_" + std::to_string(links_made), upstream,
            landed, frame_pixels, pixel_bits, config.link_bits_per_cycle));
        ++links_made;
        f = &landed;
      }
      if (is_main) {
        main_in[static_cast<std::size_t>(consumer)] = f;
      } else {
        skip_in[static_cast<std::size_t>(consumer)] = f;
      }
    };
    if (consumers.empty()) {
      produced = &make_fifo(config.fifo_depth, pname + "->sink");
      return;
    }
    if (consumers.size() == 1) {
      SimFifo& f = make_fifo(capacity_for(consumers[0]),
                             pname + "->" +
                                 pipeline.node(consumers[0]).name);
      attach(consumers[0], f);
      produced = &f;
      return;
    }
    SimFifo& trunk = make_fifo(config.fifo_depth, pname + "->fork");
    std::vector<SimFifo*> branches;
    for (int consumer : consumers) {
      SimFifo& f = make_fifo(capacity_for(consumer),
                             pname + "=>" + pipeline.node(consumer).name);
      attach(consumer, f);
      branches.push_back(&f);
    }
    kernels.push_back(std::make_unique<PassSim>("fork_" + pname, trunk,
                                                std::move(branches)));
    produced = &trunk;
  };

  SimFifo* input_fifo = nullptr;
  wire(-1, pipeline.input, input_fifo);
  std::vector<SimFifo*> node_out(static_cast<std::size_t>(pipeline.size()),
                                 nullptr);
  for (int i = 0; i < pipeline.size(); ++i) {
    wire(i, pipeline.node(i).out, node_out[static_cast<std::size_t>(i)]);
  }

  // Forks were appended during wiring; prepend the source, then the node
  // kernels in topological order, then the sink. Step order is topological
  // so a value can traverse flow-through kernels within one cycle, which
  // models combinational chaining without inflating the interval.
  std::vector<std::unique_ptr<KernelSim>> forks = std::move(kernels);
  kernels.clear();
  kernels.push_back(std::make_unique<SourceSim>(
      *input_fifo,
      static_cast<std::int64_t>(pipeline.input.h) * pipeline.input.w,
      images));
  std::size_t fork_cursor = 0;
  // Forks were created in wire() call order: input first, then node 0..n.
  // Re-interleave them right after their producing stage.
  auto take_forks_for = [&](const std::string& pname) {
    while (fork_cursor < forks.size()) {
      const std::string& name = forks[fork_cursor]->stats().name;
      const bool is_fork = name == "fork_" + pname;
      const bool is_link = name.rfind("link_" + pname + "_", 0) == 0;
      if (!is_fork && !is_link) break;
      kernels.push_back(std::move(forks[fork_cursor]));
      ++fork_cursor;
    }
  };
  take_forks_for("input");
  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    SimFifo* in = main_in[static_cast<std::size_t>(i)];
    SimFifo* out = node_out[static_cast<std::size_t>(i)];
    QNN_CHECK(in != nullptr && out != nullptr, "sim wiring incomplete");
    switch (n.kind) {
      case NodeKind::Conv:
        kernels.push_back(
            std::make_unique<ConvSim>(n, config, *in, *out, images));
        break;
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        kernels.push_back(std::make_unique<PoolSim>(n, *in, *out, images));
        break;
      case NodeKind::BnAct:
        kernels.push_back(std::make_unique<PassSim>(
            n.name, *in, std::vector<SimFifo*>{out}));
        break;
      case NodeKind::Add: {
        SimFifo* skip = skip_in[static_cast<std::size_t>(i)];
        QNN_CHECK(skip != nullptr, "sim add without skip fifo");
        kernels.push_back(std::make_unique<AddSim>(n, *in, *skip, *out));
        break;
      }
    }
    take_forks_for(n.name);
  }
  QNN_CHECK(fork_cursor == forks.size(), "fork interleaving failed");

  const Shape out_shape = pipeline.output_shape();
  auto sink = std::make_unique<SinkSim>(
      *node_out[static_cast<std::size_t>(pipeline.size() - 1)],
      static_cast<std::int64_t>(out_shape.h) * out_shape.w, images);
  SinkSim* sink_ptr = sink.get();
  kernels.push_back(std::move(sink));

  // Generous bound: every kernel's busy work plus slack; a stalled pipeline
  // beyond this is a wiring bug, not a slow network.
  std::uint64_t budget = 1024;
  for (const auto& [name, cycles] : analytic_busy_cycles(pipeline, config)) {
    budget += cycles * static_cast<std::uint64_t>(images) * 4;
  }
  // Cut-crossing streams serialize over the link; include their cycles.
  for (int c = 0; c < pipeline.size(); ++c) {
    const Node& n = pipeline.node(c);
    for (int src : {n.main_from, n.skip_from}) {
      if (src < 0 || !crosses_cut(src, c)) continue;
      const Node& producer = pipeline.node(src);
      const std::int64_t pixel_bits =
          static_cast<std::int64_t>(producer.out.c) * producer.out_bits;
      const auto cpp = static_cast<std::uint64_t>(
          (pixel_bits + config.link_bits_per_cycle - 1) /
          config.link_bits_per_cycle);
      budget += static_cast<std::uint64_t>(producer.out.h) *
                producer.out.w * cpp * static_cast<std::uint64_t>(images) *
                4;
    }
  }
  std::uint64_t cycle = 0;
  while (!sink_ptr->done()) {
    if (cycle >= budget) {
      std::string msg = "cycle simulation exceeded budget (deadlock?)\n";
      for (const auto& k : kernels) {
        const auto& s = k->stats();
        msg += "  kernel " + s.name + ": busy=" + std::to_string(s.busy) +
               " in_stall=" + std::to_string(s.stall_in) +
               " out_stall=" + std::to_string(s.stall_out) +
               " outputs=" + std::to_string(s.outputs) + "\n";
      }
      for (const auto& f : fifos) {
        msg += "  fifo " + f->name + ": occ=" + std::to_string(f->occ) +
               "/" + std::to_string(f->cap) + "\n";
      }
      throw Error(msg);
    }
    ++cycle;
    for (auto& k : kernels) k->step(cycle);
  }

  SimResult result;
  result.images = images;
  result.total_cycles = cycle;
  const auto& done = sink_ptr->completions();
  result.first_image_cycles = done.front();
  result.steady_interval =
      images >= 2 ? done[done.size() - 1] - done[done.size() - 2]
                  : done.front();
  for (const auto& k : kernels) result.kernels.push_back(k->stats());
  for (const auto& f : fifos) {
    result.fifos.push_back(FifoStats{f->name, f->cap, f->max_occ, f->total});
  }
  return result;
}

std::vector<std::pair<std::string, std::uint64_t>> analytic_busy_cycles(
    const Pipeline& pipeline, const SimConfig& config) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    std::uint64_t cycles = 0;
    switch (n.kind) {
      case NodeKind::Conv: {
        const auto padded =
            static_cast<std::uint64_t>(n.in.h + 2 * n.pad) *
            (n.in.w + 2 * n.pad);
        const auto emits =
            static_cast<std::uint64_t>(n.out.h) * n.out.w * n.out.c *
            static_cast<std::uint64_t>(config.cycles_per_output(n));
        const std::int64_t weight_bits = n.filter_shape().total_weights();
        const std::uint64_t ws =
            weight_bits > config.weight_cache_capacity_bits
                ? static_cast<std::uint64_t>(
                      (weight_bits + config.weight_stream_bits_per_cycle -
                       1) /
                      config.weight_stream_bits_per_cycle)
                : 0;
        cycles = padded + emits + ws;
        break;
      }
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        cycles = static_cast<std::uint64_t>(n.in.h + 2 * n.pad) *
                 (n.in.w + 2 * n.pad);
        break;
      case NodeKind::BnAct:
      case NodeKind::Add:
        cycles = static_cast<std::uint64_t>(n.in.h) * n.in.w;
        break;
    }
    out.emplace_back(n.name, cycles);
  }
  return out;
}

std::uint64_t analytic_bottleneck_cycles(const Pipeline& pipeline,
                                         const SimConfig& config) {
  std::uint64_t best = 0;
  for (const auto& [name, cycles] : analytic_busy_cycles(pipeline, config)) {
    best = std::max(best, cycles);
  }
  return best;
}

}  // namespace qnn
