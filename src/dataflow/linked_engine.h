// Partitioned live runtime: a pipeline cut across N virtual DFEs that are
// daisy-chained by in-process MaxRing links (paper §III-C), with a
// failover ladder that survives permanent link death mid-run.
//
// The LinkedEngine executes an explicit partition cut (a CompiledPlan's
// `cut_after_nodes`, or one derived by partition_optimal) as ONE dataflow
// graph: a single StreamEngine over the unsplit pipeline, on one Executor,
// with the edge out of every cut node rerouted through a LinkPump task.
// The pump frames the boundary stream, ships each frame over a real
// MaxRingLink (checksummed, sequence-numbered, paced by the partitioner's
// link_bits_per_cycle arithmetic) and streams the delivered frame into
// the next node's ingress ring. A link is one more FIFO in the stream, so
// every layer on every "DFE" computes concurrently, exactly as in the
// unsplit engine; one run() per batch, no per-segment threads or pools.
//
// Fault tolerance (the robustness contract DfeServer builds on):
//   * transient outages / corrupted frames are healed inside MaxRingLink
//     (checksum-nack + bounded retransmit with jittered backoff) — the
//     run completes bit-exact with only retransmit counters to show;
//   * permanent link death escalates out of the link watchdog as a
//     LinkDeadError, which leaves the graph's run with its type intact,
//     and run() fails over: the dead link is derated to health 0 and the
//     degraded plan ladder picks the next rung —
//       1. repartition_optimal under the derated link health,
//       2. the prefix of the current cuts that avoids the dead link,
//       3. the single-DFE plan (always runnable: the same graph with no
//          pumps);
//     every rung is proved by verify/link_check.h (D420/D422)
//     before it arms, and the images the failed attempt did not collect
//     are replayed on the rebuilt graph — zero lost work, bit-exact.
//
// Thread-safety matches StreamEngine: one run() at a time; cancel() and
// the accessors may be called from any thread.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/link.h"
#include "partition/partitioner.h"

namespace qnn {

struct LinkedEngineOptions {
  /// Options of the chain's one StreamEngine. `pool_threads` sizes its
  /// single Executor pool for the whole chain (0 = hardware_concurrency);
  /// `plan` supplies the default cut and the FIFO tables (each cut edge is
  /// rerouted through its link's rings); `faults` arms stream, kernel and
  /// link sites (link0..k) in one injector.
  EngineOptions engine;
  /// The partition cut: link k connects the segments on either side of
  /// cut_after_nodes[k]. Empty = take the engine plan's cut, else derive
  /// one with partition_optimal (which may yield a single segment).
  std::vector<int> cut_after_nodes;
  /// Wire pricing + failover repartitioning knobs (link_bits_per_cycle,
  /// clock_hz, link_health, link_bursts).
  PartitionConfig partition;
  /// Values per MaxRing frame; 0 = the planned burst of the crossing
  /// stream (PartitionConfig::link_bursts), falling back to 256.
  std::size_t frame_values = 0;
  std::int64_t ack_timeout_us = 20000;
  int max_retransmits = 8;
  std::int64_t retransmit_backoff_us = 200;
  /// Failover timeline callback (link death, ladder rungs, re-arms);
  /// invoked from run()'s caller thread only.
  std::function<void(const std::string&)> on_event;
};

/// One standalone sub-pipeline of a partition cut, with its parameter
/// banks re-indexed so any engine can run it in isolation (per-segment
/// profiling; the LinkedEngine itself runs the unsplit graph).
struct PipelineSegment {
  Pipeline pipeline;
  NetworkParams params;
};

/// Extract nodes [first, last] of `pipeline` as a standalone pipeline:
/// edges and parameter bank indices are re-based, and the segment input
/// is node first-1's output (the stream a MaxRing link would carry).
[[nodiscard]] PipelineSegment extract_segment(const Pipeline& pipeline,
                                              const NetworkParams& params,
                                              int first, int last);

class LinkedEngine {
 public:
  /// `pipeline` and `params` must outlive the engine: the graph and every
  /// failover rebuild run over them. A plan in `options.engine.plan` is
  /// copied, so it need only outlive this constructor.
  LinkedEngine(const Pipeline& pipeline, const NetworkParams& params,
               LinkedEngineOptions options = {});
  ~LinkedEngine();

  LinkedEngine(const LinkedEngine&) = delete;
  LinkedEngine& operator=(const LinkedEngine&) = delete;

  /// Stream a batch through the chain; survives link death by failover.
  /// Reports link activity in the RunStats link_* fields.
  [[nodiscard]] std::vector<IntTensor> run(
      std::span<const IntTensor> images,
      StreamEngine::RunStats* stats = nullptr);

  [[nodiscard]] IntTensor run_one(const IntTensor& image);

  /// Abort the in-flight run() from another thread; run() throws Error
  /// (not LinkDeadError — cancellation is not a failover trigger).
  void cancel();

  /// Segments in the *current* (possibly degraded) plan.
  [[nodiscard]] int segments() const;
  /// Physical links of the original plan (fixed for the engine lifetime).
  [[nodiscard]] int links() const;
  /// The current (possibly degraded) cut; a snapshot, since failover may
  /// replace it while another thread reads.
  [[nodiscard]] std::vector<int> cut_after_nodes() const;
  [[nodiscard]] bool link_healthy(int link) const;
  /// Degraded-plan recompiles since construction.
  [[nodiscard]] std::uint64_t plan_failovers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qnn
