// FIFO plan: the single source of every stream the engine will wire.
//
// plan_fifos() decides, for a Pipeline + EngineOptions, every FIFO the
// StreamEngine creates — name, role, capacity, element width and per-edge
// burst — in the exact order the engine creates them. The paper's sizing
// rules live here and nowhere else:
//
//  * an edge feeding a window kernel gets the §III-B1b depth-first line
//    buffer I*(W_p*(K-1) + K);
//  * a skip-path edge into an adder holds one full feature map plus slack,
//    which subsumes the §III-B5 delay-compensation buffer for any lag of
//    the regular path;
//  * each edge's burst is one whole row (W*C) of the map it carries
//    (adaptive mode), capped only by an explicit EngineOptions::burst and
//    by its own ring;
//  * every other edge holds two of its own bursts, and never less than
//    kMinFifoCapacity;
//  * a producer whose output fans out gets one ring per consumer port
//    (named `p=>c`, each sized for its consumer) and writes them all
//    itself: no fork task, no trunk ring;
//  * a conv whose only consumer is a threshold BnAct evaluates the
//    thresholds itself (fuses_into_conv, the one fusion predicate): the
//    edge between them gets no ring at all, unless a link cut separates
//    them.
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
  /// MaxRing link ordinal of a kLinkOut / kLinkIn ring, -1 otherwise. Both
  /// rings of a cut keep the cut edge's producer (the node whose values
  /// they carry); the egress burst is the link's frame size.
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
  /// Nodes followed by a routed link cut (the producers of kLinkOut
  /// rings), in plan order — the cuts fuses_into_conv must respect.
  [[nodiscard]] std::vector<int> cut_after() const;
};

/// True when BnAct `node` is evaluated inside the conv that feeds it — one
/// fused ConvKernel, one task, no ring between them: its main producer is
/// a Conv whose only consumer it is, and no link cut in `cut_after`
/// follows that conv. The one fusion predicate: plan_fifos plans no
/// stream for the edge inside a fused pair, the engine builds one kernel
/// per pair, and the verifier's capacity and token-flow models see that
/// one task. False for any index outside the pipeline.
[[nodiscard]] bool fuses_into_conv(const Pipeline& pipeline, int node,
                                   std::span<const int> cut_after = {});

/// The paper's depth-first line-buffer size (§III-B1b) for the input of a
/// window kernel, on the padded map: I * (W_p * (K-1) + K) values.
[[nodiscard]] std::size_t line_buffer_values(const Node& n);

/// Compute the FIFO plan StreamEngine will wire for these options, with
/// every pair fuses_into_conv(…, cut_after) accepts fused. This is the
/// *only* place capacities are decided; every consumer takes the plan.
[[nodiscard]] FifoPlan plan_fifos(const Pipeline& pipeline,
                                  const EngineOptions& options = {},
                                  std::span<const int> cut_after = {});

/// Reroute the edge out of every cut node through its link: the planned
/// direct edge becomes a kLinkOut ring into the LinkPump (at least one
/// frame deep, moving one frame per transaction) followed by a kLinkIn
/// ring that keeps the edge's capacity and burst. A cut between a conv
/// and the BnAct fused into it splits the pair first: the edge is planned
/// as plan_fifos would with that cut, from `sizing` — the options `plan`
/// was made with. Throws Error when a cut does not sever exactly one
/// direct edge.
void route_links(const Pipeline& pipeline, FifoPlan& plan,
                 std::span<const LinkCut> cuts,
                 const EngineOptions& sizing = {});

/// The streams a StreamEngine over `pipeline` wires: the CompiledPlan's
/// FIFOs verbatim when `options.plan` is set, plan_fifos otherwise, with
/// every cut routed through its link. The engine builds exactly this and
/// the analyzer proves exactly this.
[[nodiscard]] FifoPlan engine_fifos(const Pipeline& pipeline,
                                    const EngineOptions& options,
                                    std::span<const LinkCut> cuts = {});

}  // namespace qnn
