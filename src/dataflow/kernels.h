// Streaming kernels: the functional decomposition units of §III-B.
//
// Each kernel runs one pipeline Node and is connected to its neighbours
// only through Streams; it is triggered by input availability and output
// buffer space (dataflow firing rule, §II-B). Every task writes through
// one OutStage port that owns one ring per consumer, so where a stream
// fans out (residual skip connections) the producer fills each
// consumer's ring itself: no extra task, no extra ring.
//
// A BnAct is never a task (§III-B3 reduces BatchNorm + n-bit activation
// to a comparator and a mux on the producer's output): the port that
// writes its input — a node kernel's, the engine's feeder's or a link
// pump's — maps the values through the BnAct's threshold staircase on
// the way out and writes the codes into the BnAct's consumer rings,
// while sibling rings on the same port take the values unchanged.
//
// Kernels are *resumable tasks*, not threads: the unit of execution is
// step(), which performs a bounded amount of work using only the streams'
// non-blocking burst API and reports whether it progressed, is blocked on
// a neighbour, or has finished. The engine's Executor (executor.h) steps
// a kernel only while the ReadyHook seam says it can fire, so one worker
// pool serves a pipeline of any depth.
//
// Data moves in bursts end to end: a kernel pops a burst of input values,
// transforms it (Add sums it straight from the ring into its output
// stage; Conv/Pool ingest row segments at a time and emit all O filter
// responses per completed window position, Conv two positions per weight
// pass), stages the results, and
// flushes them with one ring transaction per ring. Blocked-episode
// accounting (Stream::note_*_stall) fires once per continuous blocked
// period per ring, so the stall counters keep their pre-burst meaning.
//
// All kernels process an unbounded sequence of images and terminate when
// their input stream is closed at an image boundary.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/simd/vec_ops.h"
#include "dataflow/stream.h"
#include "fault/fault.h"
#include "dataflow/window_scanner.h"
#include "nn/params.h"
#include "nn/pipeline.h"
#include "quant/threshold.h"

namespace qnn {

/// Outcome of one cooperative step.
enum class StepResult {
  kProgress,  // did work; call again
  kBlocked,   // no input available / no output space; retry later
  kDone,      // input drained at an image boundary; output closed
};

/// Burst size (values) every edge moves per stream transaction when
/// adaptive per-edge sizing (EngineOptions::adaptive_burst) is off and no
/// explicit EngineOptions::burst is given; with it, each edge moves one
/// row of the map it carries. Also the default of the kernels' own
/// constructors.
inline constexpr std::size_t kDefaultBurst = 256;

// ------------------------------------------------------------------ helpers

/// A BnAct evaluated at an output port: its node, its folded thresholds,
/// what it reads and the rings that take its codes.
struct PortAct {
  const Node* node = nullptr;
  const ThresholdLayer* thresholds = nullptr;
  /// Index of the port act whose codes it maps (a BnAct fed by a BnAct);
  /// -1 = the values the port is given.
  int from = -1;
  std::vector<Stream*> rings;
};

/// The rings one output port writes: `raw` take the values as given, each
/// act's rings that BnAct's codes of them.
struct PortRings {
  PortRings(std::initializer_list<Stream*> raw_rings) : raw(raw_rings) {}
  PortRings(std::vector<Stream*> raw_rings,
            std::vector<PortAct> port_acts = {})
      : raw(std::move(raw_rings)), acts(std::move(port_acts)) {}

  std::vector<Stream*> raw;
  std::vector<PortAct> acts;
};

/// The one output port of every task: staged values awaiting FIFO space
/// and the 1..N rings they go to — one per consumer, so a producer whose
/// output fans out (a residual skip connection) writes every consumer's
/// ring itself. Results are appended as they are computed and flushed
/// with one try_push_burst per ring per step; each ring keeps its own
/// progress, so a full ring holds back only itself, and the stage takes
/// new values once every ring has caught up.
///
/// A ring that carries a BnAct's codes takes them instead of the values:
/// each flush maps its values once per BnAct through that BnAct's
/// ThresholdTable (one VecOps::threshold_codes call per channel-aligned
/// stretch), carrying the channel phase across flushes, however many
/// rings take the codes — over the staged values themselves when no ring
/// takes those.
class OutStage {
 public:
  /// A port to `rings` (at least one) that holds `reserve` values without
  /// growing.
  explicit OutStage(PortRings rings, std::size_t reserve = 0);

  /// Append `n` slots and return them for the caller to fill in place.
  [[nodiscard]] std::span<std::int32_t> extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return std::span<std::int32_t>(buf_).subspan(at, n);
  }
  /// The last `n` staged values (n <= staged count), for in-place updates
  /// before they are flushed.
  [[nodiscard]] std::span<std::int32_t> tail(std::size_t n) {
    return std::span<std::int32_t>(buf_).last(n);
  }

  /// Move everything staged into every ring; true when all have it.
  bool flush() {
    if (in_place_ && !mapped_) {
      map(buf_, buf_.data());
      mapped_ = true;
    }
    if (!flush(buf_)) return false;
    buf_.clear();
    return true;
  }
  /// Move `vals` (or their codes) into every ring without staging a copy;
  /// the caller keeps them alive and unchanged, and passes them again,
  /// until this returns true. Notes one push-stall episode per ring per
  /// continuous period that ring could not take the rest.
  bool flush(std::span<const std::int32_t> vals);

  /// Register `task` as the producer of every ring (nullptr unbinds).
  void bind(ReadyHook* hook, int task);
  /// End of stream on every ring.
  void close();
  /// Discard staged values, ring progress and channel phases (between
  /// engine runs / after an aborted run).
  void clear();

 private:
  struct Act {
    ThresholdTable table;
    int from = -1;
    int ch = 0;  // channel of the next value mapped
    std::vector<std::int32_t> codes;  // unless mapped in place
    const std::int32_t* out = nullptr;  // the codes of the flush under way
  };
  struct Ring {
    Stream* stream = nullptr;
    int act = -1;  // the act whose codes it takes; -1 = the values
    std::size_t pos = 0;  // values of the current flush it has taken
    bool stall_noted = false;
  };
  /// Map `vals` through every act, in act order; an act that reads them
  /// writes its codes over them when `own` (= vals.data()) is given.
  void map(std::span<const std::int32_t> vals, std::int32_t* own = nullptr);

  const simd::VecOps& ops_;  // resolved once, at construction
  std::vector<std::int32_t> buf_;
  std::vector<Act> acts_;
  std::vector<Ring> rings_;
  bool mapped_ = false;  // acts_ hold the codes of the flush under way
  /// No ring takes the staged values and one act alone reads them, so
  /// flush() maps them in place, with no second buffer.
  bool in_place_ = false;
};

/// Pop-stall accounting of one input port: one episode per continuous
/// period the port found its stream empty (and not yet drained).
class StarveEpisode {
 public:
  /// The port popped nothing from `in`.
  void starved(Stream& in) {
    if (!noted_ && !in.drained()) {
      noted_ = true;
      in.note_pop_stall();
    }
  }
  /// The port popped values: the episode, if any, is over.
  void fed() { noted_ = false; }

 private:
  bool noted_ = false;
};

/// One input burst being consumed value by value; refilled from the stream
/// when empty. Notes one pop-stall episode per continuous starved period.
class InBurst {
 public:
  explicit InBurst(std::size_t burst) : buf_(burst == 0 ? 1 : burst) {}

  /// Values currently available without touching the stream.
  [[nodiscard]] std::size_t available() const { return len_ - pos_; }

  /// Ensure values are buffered; returns how many are now available
  /// (0: stream empty — check in.drained() to tell starvation from end).
  std::size_t refill(Stream& in) {
    if (pos_ < len_) return len_ - pos_;
    pos_ = 0;
    len_ = in.try_pop_burst(buf_);
    if (len_ == 0) {
      starve_.starved(in);
    } else {
      starve_.fed();
    }
    return len_;
  }

  [[nodiscard]] std::int32_t next() {
    QNN_DCHECK(pos_ < len_, "burst underrun");
    return buf_[pos_++];
  }

  /// Consume the next `n` buffered values at once (n <= available()); the
  /// span stays valid until the next refill. Lets a kernel handle a whole
  /// run — pack it into bit-plane line buffers, advance the scanner over
  /// it, map it through a table — without a per-value call.
  [[nodiscard]] std::span<const std::int32_t> take(std::size_t n) {
    QNN_DCHECK(n <= len_ - pos_, "burst take overrun");
    const auto run = std::span<const std::int32_t>(buf_).subspan(pos_, n);
    pos_ += n;
    return run;
  }

  /// Discard buffered values (between engine runs / after an aborted run).
  void clear() {
    pos_ = 0;
    len_ = 0;
    starve_ = {};
  }

 private:
  std::vector<std::int32_t> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  StarveEpisode starve_;
};

// ------------------------------------------------------------------- Kernel

class Kernel {
 public:
  explicit Kernel(std::string name) : name_(std::move(name)) {}
  virtual ~Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Perform a bounded amount of work without blocking. Must be called by
  /// one thread at a time (the executor serializes steps of one kernel);
  /// steps of different kernels may run concurrently.
  virtual StepResult step() = 0;

  /// Attach a fault-injection site (nullptr = none), armed per run by the
  /// engine's FaultInjector.
  void set_fault(KernelFaultSite* site) { fault_ = site; }

  /// step() gated by the fault site: an armed hang reports kBlocked until
  /// the engine aborts, an armed exception throws. The executor drives
  /// this entry point so every kernel inherits the seam.
  StepResult step_checked() {
    if (fault_ != nullptr && fault_->check()) return StepResult::kBlocked;
    return step();
  }

  /// Readiness wiring for the executor: register `task` (this
  /// kernel's slot in the executor's task table) as the consumer of every
  /// input stream and the producer of every output stream, so the streams
  /// wake it when the edge it blocked on becomes serviceable again. Called
  /// with nullptr after the run to unbind. The default binds nothing — a
  /// kernel without streams (or a test stub) then relies on the executor's
  /// rescue sweep for re-scheduling.
  virtual void bind_ready(ReadyHook* /*hook*/, int /*task*/) {}

  /// Discard all in-flight per-run state (partial bursts, staged outputs,
  /// scan cursors). The engine calls this alongside Stream::reset between
  /// runs, so an aborted run never poisons the next one.
  virtual void reset() {}

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  KernelFaultSite* fault_ = nullptr;
};

/// Common machinery of the window-ingesting kernels (Conv, Pool): a
/// depth-first scanner with local padding injection, burst input, and an
/// output stage. Subclasses emit responses for each completed window.
class WindowKernel : public Kernel {
 public:
  WindowKernel(const Node& node, Stream& in, PortRings outs,
               std::size_t burst);
  StepResult step() final;
  void reset() override;
  void bind_ready(ReadyHook* hook, int task) override;

 protected:
  /// Emit all outputs of the window at `at` into stage().
  virtual void emit(const WindowScanner::Completed& at) = 0;

  /// Called once per run of `n` scan positions — the real input values
  /// `vals`, or a padding stretch when `vals` is empty — just before the
  /// scanner advances over it, so the scanner cursor (cur_row /
  /// row_value_pos) still points at the run's first position. Each
  /// subclass stores the run into its own line buffer here.
  virtual void ingest_run(std::span<const std::int32_t> vals,
                          std::int64_t n) = 0;

  /// Called whenever the scan re-arms for a new image (end of image and
  /// reset()); subclasses recycle per-image state (e.g. line-buffer rows).
  virtual void rearm_image() {}

  /// Called before every flush of the output stage: a subclass whose
  /// emit() defers a window stages it here, so every window completed
  /// before a flush is in the stage when that flush runs.
  virtual void settle() {}

  [[nodiscard]] const Node& node() const { return node_; }
  [[nodiscard]] WindowScanner& scanner() { return scanner_; }
  [[nodiscard]] OutStage& stage() { return stage_; }

 private:
  /// Ingest `n` positions (a real run `vals`, or a padding stretch when
  /// `vals` is empty) and advance the scanner over them, emitting
  /// completed windows.
  void scan(std::span<const std::int32_t> vals, std::int64_t n);
  /// Inject padding positions until the next position is real (or done).
  void advance_padding();
  /// settle(), then move the stage into the rings; true when all have it.
  bool flush();

  const Node& node_;
  Stream& in_;
  WindowScanner scanner_;
  InBurst in_burst_;
  OutStage stage_;
  bool image_open_ = false;
};

/// Convolution kernel (Figure 3). Consumes depth-first activation codes in
/// row-segment bursts, injects padding locally, and on each completed
/// window emits all O filter responses for that position. Weights live in
/// the kernel as a packed FilterBank — the on-chip weight cache of
/// §III-B1a — re-laid once, at construction, for the datapath's sweep; it
/// is the kernel's only copy, as its line buffer is the only copy of its
/// input.
///
/// The datapath is chosen once, at construction, from node.in_bits alone:
///   - 1-2 bits: the paper's XNOR-popcount datapath. Activations are
///     decomposed once, as rows stream in, into a plane-interleaved
///     bit-plane line buffer (one vec_ops pack_codes call per <=64-code
///     chunk); each window is built from it in one pass over its K row
///     segments (a memcpy per segment when word-aligned) and swept against
///     the filter-lane weights by vec_ops dot_window.
///   - 3-16 bits (the 8-bit image layer above all): the byte domain. Rows
///     are stored one byte per value per byte-plane (two planes past 8
///     bits), a window is K memcpys per plane, and vec_ops dot_bytes runs
///     the VNNI byte dot against the same 1-bit weights, one mask word per
///     16 filters x 4 values.
/// Completed windows are dotted in pairs: each is built at once into one
/// of two window slots (the line-buffer rows it reads recycle as new rows
/// enter), and when both are full one sweep writes the 2*O int32
/// responses, in completion order, straight into the output stage, so
/// each weight vector (bit-plane) or expanded mask word (byte) serves two
/// windows. settle() dots a lone pending window before every flush, so
/// each ring sees the same values at the same flushes as with one window
/// per sweep; reset() drops it. The kernel resolves the dispatched VecOps
/// once, at construction. A BnAct it feeds is evaluated by its output
/// port on the way out (OutStage).
class ConvKernel final : public WindowKernel {
 public:
  ConvKernel(const Node& node, const FilterBank& weights, Stream& in,
             PortRings outs, std::size_t burst = kDefaultBurst);
  ~ConvKernel() override;
  void reset() override;

  /// The arithmetic of one conv (kernels.cpp): its weights, the line
  /// buffer of its last K padded input rows, and the two window slots
  /// built from it.
  class Datapath;

 private:
  void emit(const WindowScanner::Completed& at) override;
  void ingest_run(std::span<const std::int32_t> vals, std::int64_t n) override;
  void rearm_image() override;
  /// Dot a lone pending window before the stage flushes.
  void settle() override;

  /// Make line-buffer rows (.., y] valid: rows entered since the last
  /// ensure are zero-cleared (all-padding rows never see a real run, so
  /// this is the only place they get recycled).
  void ensure_row(int y);

  std::unique_ptr<Datapath> path_;
  int packed_row_ = -1;  // highest padded row already entered into the path
  /// Slot 0 holds a completed window awaiting its partner (or the next
  /// flush); a re-armed image keeps it, reset() drops it.
  bool pending_ = false;
};

/// Max / average (window-sum) pooling kernel. Parameterless; emits each
/// output as soon as its window completes (§III-B2). Every run, padding
/// included, is stored into an int32 PixelRing of the last K padded rows;
/// a completed window is reduced straight from it, tap by tap, each tap's
/// C channel values contiguous, into the output stage.
class PoolKernel final : public WindowKernel {
 public:
  PoolKernel(const Node& node, Stream& in, PortRings outs,
             std::size_t burst = kDefaultBurst);

 private:
  void emit(const WindowScanner::Completed& at) override;
  void ingest_run(std::span<const std::int32_t> vals, std::int64_t n) override;

  bool is_max_;
  PixelRing ring_;
};

/// Skip-connection adder (§III-B5, Figure 2): sums the regular path with
/// the buffered 16-bit skip path, pairwise by burst. A skip burst is
/// popped straight into the output stage and the regular path is added
/// onto it in place as it arrives; the stage is flushed once every staged
/// value is a sum. The skip stream's FIFO capacity plays the role of the
/// delay-compensation buffer.
class AddKernel final : public Kernel {
 public:
  /// `burst_main` / `burst_skip` are the planned bursts of the two input
  /// edges: each ring transaction moves at most that many values of its
  /// edge.
  AddKernel(const Node& node, Stream& in_main, Stream& in_skip,
            PortRings outs, std::size_t burst_main = kDefaultBurst,
            std::size_t burst_skip = kDefaultBurst);
  StepResult step() override;
  void reset() override;
  void bind_ready(ReadyHook* hook, int task) override;

 private:
  const Node& node_;
  Stream& main_;
  Stream& skip_;
  std::size_t burst_main_;
  std::size_t burst_skip_;
  StarveEpisode main_starve_;
  StarveEpisode skip_starve_;
  OutStage stage_;
  std::size_t open_ = 0;  // staged skip values still awaiting their main
};

}  // namespace qnn
