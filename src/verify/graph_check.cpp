#include "verify/graph_check.h"

#include <algorithm>
#include <bit>

#include "core/error.h"
#include "fpga/resource_model.h"
#include "plan/compiled_plan.h"
#include "sim/cycle_model.h"
#include "verify/plan_check.h"
#include "verify/token_flow.h"

namespace qnn {
namespace {

/// Edge indices usable for graph walks: every main/skip producer is either
/// -1 or an earlier node. Analyses past the structural pass require this.
bool edges_in_range(const Pipeline& p) {
  for (int i = 0; i < p.size(); ++i) {
    const Node& n = p.node(i);
    if (n.main_from < -1 || n.main_from >= i) return false;
    if (n.skip_from < -1 || n.skip_from >= i) return false;
  }
  return !p.nodes.empty();
}

std::string bits_str(int bits) { return std::to_string(bits) + " b"; }

}  // namespace

// -------------------------------------------------------- (a) structure

void check_structure(const Pipeline& p, Report& report) {
  const int n = p.size();
  if (n == 0) {
    report.error(diag::kBadEdge, -1, "pipeline", "pipeline has no nodes");
    return;
  }
  bool walkable = true;
  for (int i = 0; i < n; ++i) {
    const Node& node = p.node(i);
    if (node.main_from < -1 || node.main_from >= i) {
      report.error(diag::kBadEdge, i, node.name,
                   "main edge from node " + std::to_string(node.main_from) +
                       " breaks the topological order (graph has a cycle or "
                       "dangling reference)");
      walkable = false;
    }
    if (node.kind == NodeKind::Add) {
      if (node.skip_from < 0 || node.skip_from >= i) {
        report.error(diag::kMissingSkip, i, node.name,
                     "Add node has no valid skip edge (skip_from = " +
                         std::to_string(node.skip_from) +
                         "); the adder would starve forever");
        if (node.skip_from >= i || node.skip_from < -1) walkable = false;
      } else if (node.skip_from == node.main_from) {
        report.warn(diag::kDegenerateFork, i, node.name,
                    "skip and main edges read the same producer; the skip "
                    "path adds no delay and the fork is degenerate");
      }
    } else if (node.skip_from != -1) {
      report.error(diag::kStraySkip, i, node.name,
                   "only Add nodes take skip inputs (skip_from = " +
                       std::to_string(node.skip_from) + ")");
      if (node.skip_from >= i || node.skip_from < -1) walkable = false;
    }
  }
  if (!walkable) return;

  // Dead ends: a non-terminal node whose output no one pops. Its FIFO
  // fills, the node blocks, and the stall propagates to the feeder — the
  // classic runtime hang this analyzer exists to reject.
  std::vector<char> consumed(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    const Node& node = p.node(j);
    if (node.main_from >= 0) {
      consumed[static_cast<std::size_t>(node.main_from)] = 1;
    }
    if (node.skip_from >= 0) {
      consumed[static_cast<std::size_t>(node.skip_from)] = 1;
    }
  }
  for (int i = 0; i + 1 < n; ++i) {
    if (!consumed[static_cast<std::size_t>(i)]) {
      report.error(diag::kDeadEnd, i, p.node(i).name,
                   "output stream is never consumed; the FIFO would fill and "
                   "deadlock the whole upstream chain");
    }
  }

  // Backward reachability from the network output: kernels that compute
  // but whose results can never reach the output are a dead subgraph
  // (they stall once their dead-end descendants block).
  std::vector<char> live(static_cast<std::size_t>(n), 0);
  std::vector<int> stack{n - 1};
  live[static_cast<std::size_t>(n - 1)] = 1;
  while (!stack.empty()) {
    const Node& node = p.node(stack.back());
    stack.pop_back();
    for (const int src : {node.main_from, node.skip_from}) {
      if (src >= 0 && !live[static_cast<std::size_t>(src)]) {
        live[static_cast<std::size_t>(src)] = 1;
        stack.push_back(src);
      }
    }
  }
  for (int i = 0; i + 1 < n; ++i) {
    if (!live[static_cast<std::size_t>(i)] &&
        consumed[static_cast<std::size_t>(i)]) {
      report.error(diag::kUnreachable, i, p.node(i).name,
                   "kernel output never reaches the network output (dead "
                   "subgraph); it would stall once its dead-end consumers "
                   "block");
    }
  }
}

// ---------------------------------------------- (b) shapes and bit widths

void check_shapes(const Pipeline& p, Report& report) {
  for (int i = 0; i < p.size(); ++i) {
    const Node& n = p.node(i);
    const Shape& src_shape =
        n.main_from < 0 ? p.input : p.node(n.main_from).out;
    const int src_bits =
        n.main_from < 0 ? p.input_bits : p.node(n.main_from).out_bits;

    if (!n.in.valid() || !n.out.valid()) {
      report.error(diag::kShapeMismatch, i, n.name,
                   "degenerate shape (in " + n.in.str() + ", out " +
                       n.out.str() + "); every extent must be positive");
    }
    if (n.in != src_shape) {
      report.error(diag::kShapeMismatch, i, n.name,
                   "input shape " + n.in.str() + " != producer output " +
                       src_shape.str());
    }
    if (n.in_bits != src_bits) {
      report.error(diag::kBitsMismatch, i, n.name,
                   "declared input width " + bits_str(n.in_bits) +
                       " != producer stream width " + bits_str(src_bits) +
                       "; downstream bit-plane decomposition would truncate "
                       "values");
    }
    for (const int bits : {n.in_bits, n.out_bits}) {
      if (bits < 1 || bits > 32) {
        report.error(diag::kBitsRange, i, n.name,
                     "stream width " + bits_str(bits) +
                         " outside the supported [1, 32] range");
      }
    }

    if (n.is_window_op()) {
      const bool geometry_ok = n.in.valid() && n.k >= 1 && n.stride >= 1 &&
                               n.pad >= 0 && n.in.h + 2 * n.pad >= n.k &&
                               n.in.w + 2 * n.pad >= n.k;
      if (!geometry_ok) {
        report.error(diag::kBadWindow, i, n.name,
                     "window k=" + std::to_string(n.k) + " stride=" +
                         std::to_string(n.stride) + " pad=" +
                         std::to_string(n.pad) +
                         " does not fit the input map " + n.in.str());
      } else if (n.out !=
                 conv_out_shape(n.in, n.out.c, n.k, n.stride, n.pad)) {
        report.error(
            diag::kBadWindow, i, n.name,
            "output shape " + n.out.str() + " != window arithmetic " +
                conv_out_shape(n.in, n.out.c, n.k, n.stride, n.pad).str());
      }
    }

    // Minimum output width so no value of the kernel's range is truncated
    // when the next kernel decomposes the stream into out_bits planes.
    switch (n.kind) {
      case NodeKind::Conv: {
        if (n.in_bits > 16) {
          report.error(diag::kBitsRange, i, n.name,
                       "convolution input width " + bits_str(n.in_bits) +
                           " above the 16 b pre-activation model limit");
          break;
        }
        const std::int64_t window =
            static_cast<std::int64_t>(n.k) * n.k * n.in.c;
        if (window > 0 && n.in_bits >= 1) {
          const int required = preact_bits(window, n.in_bits);
          if (n.out_bits < required) {
            report.error(diag::kBitsOverflow, i, n.name,
                         "output width " + bits_str(n.out_bits) +
                             " below the " + bits_str(required) +
                             " pre-activation range of a " +
                             std::to_string(window) + "-value window");
          }
        }
        break;
      }
      case NodeKind::MaxPool:
        if (n.out_bits < n.in_bits) {
          report.error(diag::kBitsOverflow, i, n.name,
                       "max pooling cannot narrow the stream (" +
                           bits_str(n.in_bits) + " -> " +
                           bits_str(n.out_bits) + ")");
        }
        break;
      case NodeKind::AvgPool: {
        if (n.in_bits >= 1 && n.in_bits <= 31 && n.k >= 1) {
          const auto max_sum = static_cast<std::uint64_t>(n.k) * n.k *
                               ((std::uint64_t{1} << n.in_bits) - 1);
          const int required = static_cast<int>(std::bit_width(max_sum));
          if (n.out_bits < required) {
            report.error(diag::kBitsOverflow, i, n.name,
                         "window-sum range needs " + bits_str(required) +
                             ", stream declares " + bits_str(n.out_bits));
          }
        }
        break;
      }
      case NodeKind::BnAct:
        if (n.out_bits != p.act_bits) {
          report.warn(diag::kQuantizerBits, i, n.name,
                      "activation stream width " + bits_str(n.out_bits) +
                          " differs from the pipeline quantizer config (" +
                          bits_str(p.act_bits) + ")");
        }
        break;
      case NodeKind::Add: {
        if (n.out != n.in) {
          report.error(diag::kShapeMismatch, i, n.name,
                       "Add must preserve shape (" + n.in.str() + " -> " +
                           n.out.str() + ")");
        }
        if (n.skip_from >= 0 && n.skip_from < i) {
          const Node& s = p.node(n.skip_from);
          if (s.out != n.in) {
            report.error(diag::kShapeMismatch, i, n.name,
                         "skip shape " + s.out.str() + " != main shape " +
                             n.in.str());
          }
          const int required = std::max(n.in_bits, s.out_bits) + 1;
          if (n.out_bits < required) {
            report.error(diag::kBitsOverflow, i, n.name,
                         "sum of " + bits_str(n.in_bits) + " and " +
                             bits_str(s.out_bits) + " streams needs " +
                             bits_str(required) + ", stream declares " +
                             bits_str(n.out_bits));
          }
        }
        break;
      }
    }
  }
}

// --------------------------------------------------- (b) parameter banks

void check_params(const Pipeline& p, const NetworkParams& params,
                  Report& report) {
  if (static_cast<int>(params.convs.size()) != p.num_conv_params) {
    report.error(diag::kParamBank, -1, "pipeline",
                 "network declares " + std::to_string(p.num_conv_params) +
                     " conv banks, parameters supply " +
                     std::to_string(params.convs.size()));
  }
  if (static_cast<int>(params.bnacts.size()) != p.num_bnact_params) {
    report.error(diag::kParamBank, -1, "pipeline",
                 "network declares " + std::to_string(p.num_bnact_params) +
                     " bnact banks, parameters supply " +
                     std::to_string(params.bnacts.size()));
  }

  for (int i = 0; i < p.size(); ++i) {
    const Node& n = p.node(i);
    switch (n.kind) {
      case NodeKind::Conv: {
        if (n.param < 0 ||
            n.param >= static_cast<int>(params.convs.size())) {
          report.error(diag::kParamBank, i, n.name,
                       "conv bank index " + std::to_string(n.param) +
                           " out of range [0, " +
                           std::to_string(params.convs.size()) +
                           "); the kernel would read out of bounds");
          break;
        }
        const FilterShape& got =
            params.convs[static_cast<std::size_t>(n.param)].weights.shape();
        if (got.out_c != n.out.c || got.k != n.k || got.in_c != n.in.c) {
          report.error(
              diag::kWeightShape, i, n.name,
              "weight cache holds " + std::to_string(got.out_c) +
                  " filters of " + std::to_string(got.k) + "x" +
                  std::to_string(got.k) + "x" + std::to_string(got.in_c) +
                  ", kernel needs " + std::to_string(n.out.c) + " of " +
                  std::to_string(n.k) + "x" + std::to_string(n.k) + "x" +
                  std::to_string(n.in.c) +
                  "; XNOR-popcount would misalign every window");
        }
        break;
      }
      case NodeKind::BnAct: {
        if (n.param < 0 ||
            n.param >= static_cast<int>(params.bnacts.size())) {
          report.error(diag::kParamBank, i, n.name,
                       "bnact bank index " + std::to_string(n.param) +
                           " out of range [0, " +
                           std::to_string(params.bnacts.size()) + ")");
          break;
        }
        const BnActParams& b =
            params.bnacts[static_cast<std::size_t>(n.param)];
        if (b.thresholds.channels() != n.out.c) {
          report.error(diag::kThresholdChannels, i, n.name,
                       "threshold bank holds " +
                           std::to_string(b.thresholds.channels()) +
                           " channels, stream carries " +
                           std::to_string(n.out.c) +
                           "; the channel phase would drift every pixel");
        }
        if (b.thresholds.channels() > 0 &&
            b.thresholds.bits() != n.out_bits) {
          report.error(diag::kQuantizerBits, i, n.name,
                       "folded thresholds produce " +
                           bits_str(b.thresholds.bits()) +
                           " codes, stream declares " + bits_str(n.out_bits));
        }
        if (b.quantizer.bits() != n.out_bits) {
          report.error(diag::kQuantizerBits, i, n.name,
                       "activation quantizer is " +
                           bits_str(b.quantizer.bits()) +
                           ", stream declares " + bits_str(n.out_bits) +
                           "; activation bit planes would not match the "
                           "quantizer config");
        }
        break;
      }
      default:
        if (n.param != -1) {
          report.warn(diag::kParamBank, i, n.name,
                      "parameterless node carries bank index " +
                          std::to_string(n.param));
        }
        break;
    }
  }
}

// ------------------------------------------- (c) deadlock / FIFO capacity

void check_capacities(const Pipeline& p, const FifoPlan& plan,
                      Report& report) {
  if (plan.burst_clamped) {
    report.warn(diag::kBurstClamp, -1, "pipeline",
                "burst size exceeds the user FIFO capacity; kernels will "
                "move at most " + std::to_string(plan.burst) +
                    " values per transaction so one burst can never "
                    "overfill a ring");
  }

  // The engine consumes each PlannedStream::burst verbatim, so the plan
  // itself must never schedule a transaction larger than its ring — the
  // per-edge face of the D302 clamp above.
  for (const PlannedStream& ps : plan.streams) {
    if (ps.burst > ps.capacity) {
      report.error(diag::kBurstClamp, ps.consumer, ps.name,
                   "planned per-edge burst " + std::to_string(ps.burst) +
                       " exceeds the ring capacity " +
                       std::to_string(ps.capacity) +
                       "; one transaction could never complete");
    }
  }

  // Skip FIFOs below the quick whole-feature-map bound, deferred to the
  // exact token-flow proof after the scan.
  struct TightSkip {
    const PlannedStream* stream;
    std::size_t required;
    std::string detail;
  };
  std::vector<TightSkip> tight_skips;

  for (const PlannedStream& ps : plan.streams) {
    if (ps.consumer < 0) continue;
    const Node& c = p.node(ps.consumer);

    if (!ps.to_skip_port && c.is_window_op()) {
      // A window kernel's working set is its §III-B1b line buffer; a user
      // FIFO below it still makes progress (kernels are partial-burst
      // safe) but serializes producer and consumer row by row.
      const std::size_t working_set = line_buffer_values(c);
      if (ps.capacity < working_set) {
        report.warn(diag::kShallowFifo, ps.consumer, ps.name,
                    "capacity " + std::to_string(ps.capacity) +
                        " is below the kernel's §III-B1b line buffer (" +
                        std::to_string(working_set) +
                        " values); the window scan will run starved");
      }
      continue;
    }

    if (ps.to_skip_port && c.kind == NodeKind::Add) {
      // The skip FIFO must absorb the regular path's lag (§III-B5). The
      // bound used — and provisioned — by the engine is one full feature
      // map of the skip producer's output: the fork at the point where
      // skip and main paths diverge can then always run the skip side one
      // whole image ahead, so it never back-pressures the main path.
      //
      // Find that fork: walk the adder's main chain back; either the skip
      // producer itself is on it, or (downsampling residual blocks, where
      // the skip path carries its own 1x1 convolution) the producer's own
      // main chain re-joins it. Both chains end at the pipeline input, so
      // a join always exists in a connected graph.
      std::vector<int> chain;  // adder's main ancestors, nearest first
      for (int m = c.main_from; m >= 0; m = p.node(m).main_from) {
        chain.push_back(m);
      }
      const auto on_chain = [&chain](int node) {
        return std::find(chain.begin(), chain.end(), node) != chain.end();
      };

      std::string path;
      if (on_chain(ps.producer)) {
        const auto hops = static_cast<std::size_t>(
            std::find(chain.begin(), chain.end(), ps.producer) -
            chain.begin());
        if (hops == 0) {
          // Producer feeds both adder ports directly: consumption is in
          // lockstep, there is no lag to cover.
          report.info(diag::kSkipCapacity, ps.consumer, ps.name,
                      "deadlock-free: skip and main ports read the same "
                      "producer in lockstep");
          continue;
        }
        // A BnAct is never a task: count tasks, not nodes.
        const auto kernels = std::count_if(
            chain.begin(), chain.begin() + static_cast<std::ptrdiff_t>(hops),
            [&](int m) { return p.node(m).kind != NodeKind::BnAct; });
        path = std::to_string(kernels) + "-kernel regular path";
      } else {
        // Both main chains terminate at the pipeline input, so the walk
        // always finds the divergence point.
        int m = ps.producer;
        while (m >= 0 && !on_chain(m)) m = p.node(m).main_from;
        path = "re-convergent skip path joining the main chain at " +
               (m >= 0 ? p.node(m).name : std::string("the input"));
      }
      const std::size_t required =
          static_cast<std::size_t>(p.node(ps.producer).out.elems());
      if (ps.capacity >= required) {
        report.info(diag::kSkipCapacity, ps.consumer, ps.name,
                    "deadlock-free: capacity " +
                        std::to_string(ps.capacity) +
                        " covers the regular path's lag bound of " +
                        std::to_string(required) + " values (" + path +
                        ")");
      } else {
        // Below the whole-feature-map bound the quick argument is silent:
        // the capacity only has to cover the regular path's TRUE lag, a
        // property of the scan geometry and every FIFO between fork and
        // adder. Defer to the exact token-flow proof over the whole plan.
        tight_skips.push_back(
            {&ps, required, std::to_string(ps.capacity) +
                                " is below the feature-map bound of " +
                                std::to_string(required) + " values (" +
                                path + ")"});
      }
    }
  }

  if (tight_skips.empty()) return;

  // One self-timed simulation of the whole planned graph decides every
  // below-bound skip FIFO at once (verify/token_flow.h): completion of the
  // no-slack model proves deadlock freedom for every schedule; deadlock of
  // the full-slack model refutes it; the band between is reported, not
  // guessed.
  TokenFlowResult proof;
  try {
    proof = prove_token_flow(p, plan);
  } catch (const Error& e) {
    for (const TightSkip& ts : tight_skips) {
      report.warn(diag::kUnprovable, ts.stream->consumer, ts.stream->name,
                  "skip capacity " + ts.detail +
                      ") and the token-flow model could not be built: " +
                      e.what());
    }
    return;
  }
  for (const TightSkip& ts : tight_skips) {
    switch (proof.verdict) {
      case TokenVerdict::kFeasible:
        report.info(diag::kSkipCapacity, ts.stream->consumer, ts.stream->name,
                    "deadlock-free (exact token-flow proof): capacity " +
                        ts.detail +
                        ") but the pipelined simulation completes with no "
                        "burst slack, so the true lag is covered under "
                        "every schedule");
        break;
      case TokenVerdict::kDeadlock:
        report.error(diag::kSkipCapacity, ts.stream->consumer,
                     ts.stream->name,
                     "skip FIFO capacity " + ts.detail +
                         ") and the exact token-flow simulation deadlocks "
                         "even with full burst slack: " + proof.witness);
        break;
      case TokenVerdict::kMarginal:
        report.warn(diag::kUnprovable, ts.stream->consumer, ts.stream->name,
                    "skip capacity " + ts.detail +
                        ") is schedule-dependent: the token-flow simulation "
                        "completes only when burst buffers absorb the "
                        "overhang (no-slack quiescence: " + proof.witness +
                        "); enlarge the FIFO");
        break;
      case TokenVerdict::kUndecided:
        report.warn(diag::kUnprovable, ts.stream->consumer, ts.stream->name,
                    "skip capacity " + ts.detail +
                        ") and the token-flow simulation exhausted its "
                        "budget before deciding");
        break;
    }
  }
}

// ------------------------------------------ (d) partition feasibility

void check_partition(const Pipeline& p, const PartitionResult& placement,
                     const PartitionConfig& config, Report& report) {
  const int n = p.size();
  if (placement.dfes.empty()) {
    report.error(diag::kBadSegments, -1, "placement",
                 "placement assigns no DFEs");
    return;
  }
  int expect = 0;
  for (std::size_t k = 0; k < placement.dfes.size(); ++k) {
    const DfeAssignment& d = placement.dfes[k];
    if (d.first_node != expect || d.last_node < d.first_node ||
        d.last_node >= n) {
      report.error(diag::kBadSegments, d.first_node,
                   "DFE " + std::to_string(k),
                   "segments do not tile the kernel chain (segment [" +
                       std::to_string(d.first_node) + ", " +
                       std::to_string(d.last_node) + "], expected start " +
                       std::to_string(expect) + ")");
      return;
    }
    expect = d.last_node + 1;
  }
  if (expect != n) {
    report.error(diag::kBadSegments, -1, "placement",
                 "segments cover " + std::to_string(expect) + " of " +
                     std::to_string(n) + " kernels");
    return;
  }
  if (static_cast<int>(placement.dfes.size()) > config.max_dfes) {
    report.error(diag::kTooManyDfes, -1, "placement",
                 "placement uses " + std::to_string(placement.dfes.size()) +
                     " DFEs, the node provides " +
                     std::to_string(config.max_dfes));
  }

  // Per-DFE resource totals against the device, independent of whatever
  // the planner recorded in the placement.
  const NetworkResources res = estimate_resources(p, config.costs);
  for (std::size_t k = 0; k < placement.dfes.size(); ++k) {
    const DfeAssignment& d = placement.dfes[k];
    double luts = 0.0;
    double ffs = 0.0;
    std::int64_t bram = 0;
    for (int i = d.first_node; i <= d.last_node; ++i) {
      const NodeResources& nr = res.nodes[static_cast<std::size_t>(i)];
      luts += nr.luts;
      ffs += nr.ffs;
      bram += nr.bram_blocks;
    }
    const double lut_frac = luts / static_cast<double>(config.device.luts);
    const double ff_frac = ffs / static_cast<double>(config.device.ffs);
    const double bram_frac = static_cast<double>(bram) /
                             static_cast<double>(config.device.bram_blocks);
    const double util = std::max({lut_frac, ff_frac, bram_frac});
    if (util > config.fill * (1.0 + 1e-9)) {
      const char* binding = util == lut_frac  ? "LUTs"
                            : util == ff_frac ? "FFs"
                                              : "BRAM";
      report.error(diag::kDfeOverfill, d.first_node,
                   "DFE " + std::to_string(k),
                   "utilization " + std::to_string(util) +
                       " exceeds the fill budget " +
                       std::to_string(config.fill) + " (binding resource: " +
                       binding + ")");
    }
  }

  // Per-cut MaxRing bit-rate at the pipeline's modeled throughput (the
  // sim/ link arithmetic: every stream crossing the cut is serialized
  // over the DFE-to-DFE link).
  SimConfig sc;
  sc.datapath_bits = config.costs.datapath_bits;
  sc.weight_cache_capacity_bits = config.costs.weight_cache_capacity_bits;
  sc.clock_hz = config.clock_hz;
  const double fps =
      config.clock_hz /
      static_cast<double>(analytic_bottleneck_cycles(p, sc));
  for (std::size_t k = 0; k + 1 < placement.dfes.size(); ++k) {
    // Health-derated per-link capacity, so a placement over a degraded or
    // dead MaxRing hop (PartitionConfig::link_health) fails verification.
    const double capacity_mbps = config.link_capacity_mbps(k);
    const int after = placement.dfes[k].last_node;
    double mbps = 0.0;
    // Same framed pricing as partition/assemble: planned bursts carried in
    // PartitionConfig::link_bursts round each frame to whole link words.
    for (const CrossingStream& s :
         crossing_streams(p, after, &config.link_bursts)) {
      mbps += s.wire_mbps(fps, config.link_bits_per_cycle);
    }
    const std::string where =
        "link after " + p.node(after).name;
    if (mbps > capacity_mbps) {
      report.error(diag::kLinkOversubscribed, after, where,
                   "cut needs " + std::to_string(mbps) +
                       " Mbps, MaxRing provides " +
                       std::to_string(capacity_mbps) + " Mbps");
    } else {
      report.info(diag::kLinkOversubscribed, after, where,
                  "feasible: " + std::to_string(mbps) + " of " +
                      std::to_string(capacity_mbps) + " Mbps");
    }
  }
}

// ------------------------------------------------------------ entry points

Report verify_graph(const Pipeline& pipeline, const NetworkParams* params,
                    const EngineOptions& options,
                    std::span<const LinkCut> links) {
  Report report;
  check_structure(pipeline, report);
  if (!edges_in_range(pipeline)) return report;
  check_shapes(pipeline, report);
  if (params != nullptr) check_params(pipeline, *params, report);
  if (options.plan != nullptr) {
    // Re-verify the whole plan artifact (verify/plan_check.h): a stale
    // fingerprint, corrupt stream table or burst/FIFO skew must never reach
    // the engine — its FIFO sizes were proved for a different graph. Any
    // error here invalidates the capacity proof below, so stop.
    const int errors_before = report.errors();
    lint_plan(pipeline, *options.plan, report);
    if (report.errors() != errors_before) return report;
  }
  if (report.ok()) {
    // Prove the SAME streams the engine will wire: the supplied plan's
    // FIFOs verbatim when one is given, the re-derived plan otherwise,
    // link cuts routed either way. A cut that severs no single direct
    // edge cannot be routed at all.
    FifoPlan plan;
    try {
      plan = engine_fifos(pipeline, options, links);
    } catch (const Error& e) {
      report.error(diag::kCutCrossesSkip, -1, "links", e.what());
      return report;
    }
    check_capacities(pipeline, plan, report);
  } else {
    report.warn(diag::kUnprovable, -1, "pipeline",
                "capacity analysis skipped: earlier errors invalidate the "
                "FIFO lag bounds");
  }
  return report;
}

Report verify_all(const Pipeline& pipeline, const NetworkParams* params,
                  const EngineOptions& options,
                  const PartitionResult* placement,
                  const PartitionConfig& partition_config) {
  Report report = verify_graph(pipeline, params, options);
  if (placement != nullptr && report.ok()) {
    check_partition(pipeline, *placement, partition_config, report);
  }
  return report;
}

void enforce(const Report& report, const std::string& context) {
  if (report.ok()) return;
  throw Error(context + ": static verification failed (" + report.summary() +
              ")\n" + report.str(Severity::kError));
}

}  // namespace qnn
