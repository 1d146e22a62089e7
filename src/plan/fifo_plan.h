// FIFO plan: the single source of every stream the engine will wire.
//
// plan_fifos() decides, for a Pipeline + EngineOptions, every FIFO the
// StreamEngine creates — name, role, capacity, element width and per-edge
// burst — in the exact order the engine creates them. The paper's sizing
// rules live here and nowhere else:
//
//  * an edge feeding a window kernel gets the §III-B1b depth-first line
//    buffer I*(W_p*(K-1) + K);
//  * a skip-path edge into an adder holds one full feature map plus
//    kSkipSlack values, which subsumes the §III-B5 delay-compensation buffer for any lag of
//    the regular path;
//  * each edge's burst is one whole row (W*C) of the map it carries
//    (adaptive mode), capped only by an explicit EngineOptions::burst and
//    by its own ring;
//  * every other edge holds two of its own bursts, and never less than
//    kMinFifoCapacity;
//  * a producer whose output fans out gets one ring per consumer port
//    (named `p=>c`, each sized for its consumer) and writes them all
//    itself: no fork task, no trunk ring;
//  * a BnAct is never a task: the port that writes its input evaluates
//    its thresholds and writes its codes into its consumers' rings, so no
//    ring goes into a BnAct.
//
// Consumers: the StreamEngine wires streams from the plan verbatim; the
// static analyzer (verify/graph_check.h) proves the same plan deadlock-
// free; the session layer carries the per-edge bursts into the cycle
// simulator's MaxRing serializer and the partitioner's wire pricing; and
// CompiledPlan (plan/compiled_plan.h) freezes the whole thing into a
// serializable artifact.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/link.h"
#include "nn/pipeline.h"

namespace qnn {

/// Floor on the auto-sized depth of an edge without a line buffer (two
/// kDefaultBurst transactions): the rings of small maps, whose two rows
/// are shallower, stay this deep.
inline constexpr std::size_t kMinFifoCapacity = 2 * kDefaultBurst;

/// Values a skip-path ring holds beyond the full feature map it may need
/// to buffer while the regular path lags.
inline constexpr std::size_t kSkipSlack = 64;

/// One FIFO the engine will create for a given Pipeline + EngineOptions.
struct PlannedStream {
  enum class Role {
    kDirect,  // producer -> one consumer port (one per port on fan-out)
    kOutput,  // terminal stream of a node without consumers
    kLinkOut,  // producer -> the LinkPump of a partition cut (egress ring)
    kLinkIn,   // LinkPump -> the consumer port across the cut (ingress)
  };

  std::string name;      // identical to the engine's Stream name
  Role role = Role::kDirect;
  int producer = -1;     // node index; -1 = pipeline input
  int consumer = -1;     // node index; -1 for kOutput / kLinkOut
  bool to_skip_port = false;  // consumer-side port (Add nodes only)
  std::size_t capacity = 0;   // values
  int bits = 0;               // declared element width
  /// Values the consumer moves per ring transaction on this edge. With
  /// EngineOptions::adaptive_burst it is one row (W·C) of the map the
  /// edge carries, clamped to an explicit EngineOptions::burst and to the
  /// ring; without, it is the plan-wide burst on every edge. Consumed by
  /// the engine's
  /// kernel construction AND the D302/D303 capacity checks, so burst
  /// sizing has exactly one source.
  std::size_t burst = 0;
  /// MaxRing link ordinal of a kLinkOut / kLinkIn ring, -1 otherwise.
  /// Every ring keeps the producer whose values it carries: the egress
  /// ring the cut node, an ingress ring the cut node or a BnAct after it.
  /// The egress burst is the link's frame size.
  int link = -1;
};

/// The complete FIFO plan of one engine instance: every stream in the
/// order the engine creates them, plus the effective burst cap.
struct FifoPlan {
  std::vector<PlannedStream> streams;
  /// Cap on per-edge bursts: EngineOptions::burst clamped to the user
  /// FIFO capacity so a transaction can never exceed the ring; 0 = no cap
  /// (adaptive mode with default options: every edge moves its row). In
  /// uniform mode, the size every edge moves. Each edge's actual size is
  /// streams[i].burst.
  std::size_t burst = 0;
  /// Some edge asked for a larger transaction than its user-sized ring
  /// holds (QNN-D302).
  bool burst_clamped = false;

  /// Sum of all planned capacities (host-memory footprint in values).
  [[nodiscard]] std::size_t total_capacity() const;
  /// The planned stream into `consumer`'s main or skip port, or nullptr.
  [[nodiscard]] const PlannedStream* find_edge(int consumer,
                                               bool to_skip_port) const;
};

/// The paper's depth-first line-buffer size (§III-B1b) for the input of a
/// window kernel, on the padded map: I * (W_p * (K-1) + K) values.
[[nodiscard]] std::size_t line_buffer_values(const Node& n);

/// Compute the FIFO plan StreamEngine will wire for these options. This
/// is the *only* place capacities are decided; every consumer takes the
/// plan.
[[nodiscard]] FifoPlan plan_fifos(const Pipeline& pipeline,
                                  const EngineOptions& options = {});

/// Every edge of the pipeline as plan_fifos would ring it, the edges into
/// BnActs (which get no ring) included, in plan order: the transactions
/// a link cut after each producer would frame.
[[nodiscard]] std::vector<PlannedStream> plan_edges(
    const Pipeline& pipeline, const EngineOptions& options = {});

/// The task that writes a planned ring, and the BnActs its output port
/// applies on the way. A BnAct is never a task: a ring out of one is
/// written by the task that writes the BnAct's input — the producer's
/// kernel, the feeder, or the pump of a link cut right before it.
struct RingWriter {
  /// The node whose values the writer's port is given (-1 = the pipeline
  /// input): the writing node itself, or a cut node whose link delivers
  /// them.
  int node = -1;
  /// The link whose pump writes the ring; -1 = node's own task (the
  /// feeder for node -1).
  int link = -1;
  /// BnActs between `node` and the ring's producer, innermost first.
  std::vector<int> bnacts;
};

/// Who writes `ring` of `plan` — where the plan's kLinkOut rings mark the
/// link cuts. Every ring has exactly one writer.
[[nodiscard]] RingWriter ring_writer(const Pipeline& pipeline,
                                     const FifoPlan& plan,
                                     const PlannedStream& ring);

/// Reroute the edge out of every cut node through its link: a kLinkOut
/// ring of the cut node's raw values (as deep as the first ring that
/// carries them on and at least one frame, moving one frame per
/// transaction) goes in front of the rings the LinkPump now writes — the
/// cut node's direct ring, or when it feeds a BnAct that BnAct's rings,
/// whose codes the pump's port evaluates. Those keep their capacity and
/// burst; the direct ones become kLinkIn rings. Throws Error when a cut
/// does not sever exactly one consumer port.
void route_links(const Pipeline& pipeline, FifoPlan& plan,
                 std::span<const LinkCut> cuts);

/// The streams a StreamEngine over `pipeline` wires: the CompiledPlan's
/// FIFOs verbatim when `options.plan` is set, plan_fifos otherwise, with
/// every cut routed through its link. The engine builds exactly this and
/// the analyzer proves exactly this.
[[nodiscard]] FifoPlan engine_fifos(const Pipeline& pipeline,
                                    const EngineOptions& options,
                                    std::span<const LinkCut> cuts = {});

}  // namespace qnn
