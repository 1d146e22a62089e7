// Streaming engine: the software analog of the DFE manager.
//
// Builds one Kernel per pipeline node that is not a BnAct, wires them
// with bounded Streams, feeds images in depth-first pixel order and
// collects the output stream. Where a stream fans out (skip connections)
// the producer writes one ring per consumer through its output port
// (kernels.h OutStage): the fan-out costs no task and no extra ring, as
// on the DFE, where it is wiring. Nor does a BnAct: the port that writes
// its input — a kernel's, the feeder's or a link pump's — writes its
// codes (§III-B3's comparator + mux on the producer's output). All layers compute concurrently once the pipeline fills — the
// paper's computation-overlap property (§III-B) realized on the host.
//
// Transport is burst-mode end to end (see stream.h): the feeder pushes
// whole row segments, kernels move the per-edge burst planned by
// plan_fifos (one whole row of the carried map by default, capped only by
// an explicit EngineOptions::burst) per ring transaction, and the
// collector pops directly into the output tensors. Kernels run on the engine's Executor
// (see executor.h): an event-driven ready-queue scheduler that the
// streams wake through the ReadyHook seam, so a kernel fires only when it
// has input and room for output.
//
// FIFO capacities default to the paper's depth-first line-buffer formula
// I*(W_p*(K-1) + K) (§III-B1b) per edge feeding a window kernel; the
// skip-path FIFO holds a full feature map plus slack, which subsumes the
// delay-compensation buffer of §III-B5 for any consumer lag.
//
// A partitioned graph (built by the LinkedEngine) is the same graph with
// the edge out of each cut node rerouted through a LinkPump task and its
// MaxRing link (link.h): one more FIFO in the stream, on the same
// Executor.
//
// The engine is the *functional* model (bit-exact against the reference
// executor); timing comes from the cycle simulator in sim/.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/tensor.h"
#include "dataflow/executor.h"
#include "dataflow/kernels.h"
#include "dataflow/link.h"
#include "fault/fault.h"

namespace qnn {

struct CompiledPlan;  // plan/compiled_plan.h

struct EngineOptions {
  /// FIFO capacity (values) of regular kernel-to-kernel streams.
  /// 0 = auto-size each edge from the §III-B1b line-buffer formula.
  std::size_t fifo_capacity = 0;
  /// Cap on the values kernels move per stream transaction; 0 = no cap.
  /// With adaptive_burst each edge moves one row of the map it carries,
  /// clamped to this cap; without it every edge moves exactly this many
  /// (0 = kDefaultBurst, 1 = scalar transport).
  std::size_t burst = 0;
  /// Derive per-edge burst sizes from producer row lengths in plan_fifos
  /// (FifoPlan::streams[i].burst) instead of using `burst` uniformly.
  bool adaptive_burst = true;
  /// Executor worker count; 0 = hardware_concurrency.
  unsigned pool_threads = 0;
  /// Bind executor worker w to core (pin_offset + w) % cores
  /// (Linux pthread affinity; no-op elsewhere). Combined with the home
  /// partition of the ready deques this keeps producer/consumer kernel
  /// pairs on one core's cache.
  bool pin_threads = false;
  /// First core of this engine's pinning window; DfeServer staggers it
  /// per replica so replica pools tile the machine instead of stacking
  /// every worker 0 on core 0.
  unsigned pin_offset = 0;
  /// Run the static analyzer (verify/graph_check.h) during construction
  /// and refuse to build a graph with any error-severity finding. The
  /// software analog of the Maxeler compile-time graph checks; off only
  /// for tests that need to instantiate deliberately broken graphs.
  bool verify = true;
  /// Deterministic fault schedule this engine executes (see fault/fault.h).
  /// Empty = no injection seam is armed (zero overhead on the fast paths
  /// beyond one null check).
  FaultPlan faults;
  /// Replica identity matched against FaultEvent::replica; DfeServer sets
  /// this to the replica index so one plan can target one replica of many.
  int fault_replica = 0;
  /// Pre-built compile-time plan (plan/compiled_plan.h). When set, the
  /// engine wires the plan's FIFO streams verbatim instead of re-deriving
  /// them, and the analyzer proves those SAME streams (after a QNN-D305
  /// fingerprint check against the pipeline). Non-owning: the pointee must
  /// outlive engine construction — SessionConfig::plan holds it by
  /// shared_ptr and DfeSession::compile points this at it. The engine does
  /// not keep the pointer after its constructor returns.
  const CompiledPlan* plan = nullptr;
};

class StreamEngine {
 public:
  StreamEngine(const Pipeline& pipeline, const NetworkParams& params,
               EngineOptions options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Host-side statistics of a run() call: wall clock plus the aggregate
  /// stream activity of the pipeline, so callers (e.g. the serving metrics
  /// layer) can report utilization without re-walking stream_traffic().
  struct RunStats {
    double wall_seconds = 0.0;
    double images_per_second = 0.0;
    /// Sum over all FIFOs of the values they carried during the run.
    std::uint64_t values_streamed = 0;
    /// Sum over all FIFOs of producer-side ring transfers; values_streamed
    /// / stream_transactions is the pipeline's mean burst occupancy.
    std::uint64_t stream_transactions = 0;
    /// Producer-side blocking episodes (a push found its FIFO full),
    /// summed over all FIFOs — backpressure inside the pipeline.
    std::uint64_t push_stalls = 0;
    /// Consumer-side blocking episodes (a pop found its FIFO empty),
    /// summed over all FIFOs — starvation inside the pipeline.
    std::uint64_t pop_stalls = 0;
    /// Fault events from EngineOptions::faults that fired during this run.
    std::uint64_t faults_injected = 0;
    /// MaxRing link activity (LinkedEngine runs only; all zero for a
    /// single-segment engine). `links` is the *physical* link count of the
    /// original partition cut — a failed-over run keeps reporting the dead
    /// link at health 0.0 so the serving metrics can show it.
    std::uint64_t link_frames = 0;       // frames delivered across all links
    std::uint64_t link_retransmits = 0;  // timeout/nack-driven resends
    std::uint64_t link_failovers = 0;    // degraded-plan recompiles this run
    int links = 0;
    std::array<double, 8> link_health{};
  };

  /// Stream a batch of images through the pipeline; returns one output
  /// tensor per image. Kernels run concurrently for the whole batch.
  /// Optionally reports wall-clock throughput of the software engine.
  /// Throws Error for an image value the engine cannot carry exactly: one
  /// outside [0, 2^input_bits) when the input is an image of codes (a conv
  /// reads it), else — a segment whose input is a signed boundary value —
  /// one outside [-2^input_bits, 2^input_bits), what the input ring holds.
  [[nodiscard]] std::vector<IntTensor> run(std::span<const IntTensor> images,
                                           RunStats* stats = nullptr);

  [[nodiscard]] IntTensor run_one(const IntTensor& image);

  /// Abort the in-flight run() from another thread: every kernel unwinds
  /// and run() throws. The engine stays reusable — the next run() starts
  /// from pristine streams and kernels. No effect when no run is active.
  void cancel() { abort_.store(true, std::memory_order_relaxed); }

  /// Tasks the executor runs per image besides feeder and collector: one
  /// per node that is not a BnAct, plus link pumps.
  [[nodiscard]] int kernel_count() const {
    return static_cast<int>(kernels_.size());
  }
  [[nodiscard]] int stream_count() const {
    return static_cast<int>(streams_.size());
  }
  /// Values carried by every stream during the last run() (name, count).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  stream_traffic() const;

 private:
  friend class LinkedEngine;

  /// The partitioned graph (LinkedEngine): the unsplit pipeline with each
  /// cut edge rerouted through a LinkPump task and its MaxRingLink, on
  /// this engine's one Executor. `faults`, when set, is the caller's
  /// injector: the engine registers its stream and kernel sites there
  /// (link sites come with the cuts) and leaves begin_run() and the
  /// replica-crash check to the caller.
  StreamEngine(const Pipeline& pipeline, const NetworkParams& params,
               EngineOptions options, std::span<const LinkCut> cuts,
               FaultInjector* faults);

  /// run() that appends each output to `outputs` as it is collected, so
  /// a run that throws leaves the completed prefix of `images` there.
  void run_collecting(std::span<const IntTensor> images,
                      std::vector<IntTensor>& outputs, RunStats* stats);

  /// Per-link counters of the last run, in cut order.
  [[nodiscard]] std::vector<LinkStats> link_stats() const;

  Stream& make_stream(std::size_t capacity, int bits, std::string name);

  // The engine never mutates the pipeline or parameters it was built from
  // (const references all the way down to the kernels), so any number of
  // engines may be constructed from — and run concurrently against — one
  // Pipeline/NetworkParams pair. DfeServer relies on this for replica pools.
  const Pipeline& pipeline_;
  const NetworkParams& params_;
  const EngineOptions options_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Kernel>> kernels_;
  std::vector<const LinkPump*> pumps_;  // in cut order, owned by kernels_
  Executor executor_;
  std::unique_ptr<FaultInjector> own_injector_;
  FaultInjector* injector_ = nullptr;  // own_injector_ or the caller's
  PortRings input_port_{};  // the feeder's rings
  // run() accepts an input value v iff (v + input_offset_) mod 2^32 lies
  // below 2^input_width_: [0, 2^input_bits) for codes, else
  // [-2^input_bits, 2^input_bits).
  std::uint32_t input_offset_ = 0;
  int input_width_ = 32;
  Stream* output_stream_ = nullptr;
  std::atomic<bool> abort_{false};
};

}  // namespace qnn
