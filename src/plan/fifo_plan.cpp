#include "plan/fifo_plan.h"

#include <algorithm>

#include "core/error.h"
#include "plan/compiled_plan.h"

namespace qnn {

std::size_t FifoPlan::total_capacity() const {
  std::size_t total = 0;
  for (const PlannedStream& s : streams) total += s.capacity;
  return total;
}

const PlannedStream* FifoPlan::find_edge(int consumer,
                                         bool to_skip_port) const {
  for (const PlannedStream& s : streams) {
    if (s.consumer == consumer && s.to_skip_port == to_skip_port &&
        s.role == PlannedStream::Role::kDirect) {
      return &s;
    }
  }
  return nullptr;
}

std::size_t line_buffer_values(const Node& n) {
  QNN_DCHECK(n.is_window_op(), "line buffer of a non-window kernel");
  const std::int64_t wp = n.in.w + 2 * n.pad;
  return static_cast<std::size_t>(static_cast<std::int64_t>(n.in.c) *
                                  (wp * (n.k - 1) + n.k));
}

namespace {

/// The plan of every edge; with `ring_bnacts` false, the edges into
/// BnActs get no ring.
FifoPlan plan_rings(const Pipeline& pipeline, const EngineOptions& options,
                    bool ring_bnacts) {
  FifoPlan plan;
  const std::size_t user = options.fifo_capacity;
  // The transaction size asked for: EngineOptions::burst, or for its
  // default 0 one whole row per edge (kDefaultBurst on every edge when
  // adaptive sizing is off). asked == 0 below means "no cap".
  const std::size_t asked = options.burst != 0 ? options.burst
                            : options.adaptive_burst ? 0
                                                     : kDefaultBurst;
  if (!options.adaptive_burst) {
    // Uniform transport: one plan-wide size, clamped to the user FIFO.
    plan.burst_clamped = user != 0 && user < asked;
    plan.burst = plan.burst_clamped ? user : asked;
  } else {
    plan.burst = asked == 0 || (user != 0 && user < asked) ? user : asked;
  }

  // Mirrors StreamEngine wiring: one pass per producer (-1 = pipeline
  // input), consumers in node order with the main port attached first.
  auto plan_producer = [&](int p, const Shape& shape, int bits) {
    // Adaptive mode matches every edge's transaction to one row (W·C) of
    // the map it carries — the §III-B1b unit the window scanners ingest —
    // so a wide early edge moves whole rows and a thin late one is not
    // held to a fixed size it never fills; EngineOptions::burst, when
    // set, caps it.
    const auto row = static_cast<std::size_t>(shape.w) *
                     static_cast<std::size_t>(shape.c);
    const std::size_t want =
        !options.adaptive_burst ? plan.burst
        : asked == 0            ? row
                                : std::min(row, asked);
    // Depth of an edge whose consumer needs no line buffer: two of its
    // own bursts, so producer and consumer overlap, and never below
    // kMinFifoCapacity.
    const std::size_t plain_capacity =
        user != 0 ? user : std::max(2 * want, kMinFifoCapacity);

    struct ConsumerPort {
      int node;
      bool skip;
    };
    std::vector<ConsumerPort> consumers;
    for (int j = 0; j < pipeline.size(); ++j) {
      const Node& n = pipeline.node(j);
      if (n.main_from == p) consumers.push_back({j, false});
      if (n.skip_from == p && p >= 0) consumers.push_back({j, true});
    }
    const std::string pname = p < 0 ? "input" : pipeline.node(p).name;

    auto capacity_for = [&](const ConsumerPort& port) -> std::size_t {
      const Node& n = pipeline.node(port.node);
      if (n.kind == NodeKind::Add && port.skip && n.main_from != p) {
        // The skip-path FIFO is sized to hold a full feature map plus
        // slack, whatever fifo_capacity says: functionally it subsumes
        // the delay-compensation buffer of §III-B5 (which only needs to
        // cover the regular path's *lag*, a prefix of the map).
        return static_cast<std::size_t>(shape.elems()) + kSkipSlack;
      }
      if (user != 0) return user;
      // Auto mode: a window kernel's input FIFO is its §III-B1b line
      // buffer; anything deeper buys nothing the scanner can use.
      if (n.is_window_op()) {
        return std::max(line_buffer_values(n), plain_capacity);
      }
      return plain_capacity;
    };

    // An edge moves its burst, cut to its own ring in adaptive mode (in
    // uniform mode a burst above a ring is D302's to reject).
    auto stream = [&](std::string name, PlannedStream::Role role,
                      int consumer, bool skip, std::size_t capacity) {
      std::size_t burst = want;
      if (options.adaptive_burst && burst > capacity) {
        burst = capacity;
        plan.burst_clamped = true;
      }
      plan.streams.push_back(PlannedStream{std::move(name), role, p,
                                           consumer, skip, capacity, bits,
                                           std::max<std::size_t>(burst, 1)});
    };

    if (consumers.empty()) {
      stream(pname + "->output", PlannedStream::Role::kOutput, -1, false,
             plain_capacity);
      return;
    }
    // One ring per consumer port; a fanned-out producer writes them all.
    const char* arrow = consumers.size() == 1 ? "->" : "=>";
    for (const ConsumerPort& c : consumers) {
      // A BnAct is never a task: the port that writes its input writes
      // its codes into its own consumers' rings.
      if (!ring_bnacts && pipeline.node(c.node).kind == NodeKind::BnAct) {
        continue;
      }
      stream(pname + arrow + pipeline.node(c.node).name,
             PlannedStream::Role::kDirect, c.node, c.skip, capacity_for(c));
    }
  };

  plan_producer(-1, pipeline.input, pipeline.input_bits);
  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    plan_producer(i, n.out, n.out_bits);
  }
  return plan;
}

}  // namespace

FifoPlan plan_fifos(const Pipeline& pipeline, const EngineOptions& options) {
  return plan_rings(pipeline, options, false);
}

std::vector<PlannedStream> plan_edges(const Pipeline& pipeline,
                                      const EngineOptions& options) {
  return plan_rings(pipeline, options, true).streams;
}

RingWriter ring_writer(const Pipeline& pipeline, const FifoPlan& plan,
                       const PlannedStream& ring) {
  // The link out of node m, if any, other than the one `ring` feeds.
  const auto cut_after = [&](int m) {
    for (const PlannedStream& s : plan.streams) {
      if (s.role == PlannedStream::Role::kLinkOut && s.producer == m &&
          !(ring.role == PlannedStream::Role::kLinkOut &&
            ring.link == s.link)) {
        return s.link;
      }
    }
    return -1;
  };
  RingWriter w;
  int m = ring.producer;
  for (;;) {
    w.link = m >= 0 ? cut_after(m) : -1;
    if (w.link >= 0 || m < 0 || m >= pipeline.size() ||
        pipeline.node(m).kind != NodeKind::BnAct) {
      break;
    }
    w.bnacts.push_back(m);
    m = pipeline.node(m).main_from;
  }
  w.node = m;
  std::reverse(w.bnacts.begin(), w.bnacts.end());
  return w;
}

void route_links(const Pipeline& pipeline, FifoPlan& plan,
                 std::span<const LinkCut> cuts) {
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const int x = cuts[k].after_node;
    int ports = 0;
    if (x >= 0 && x < pipeline.size()) {
      for (const Node& n : pipeline.nodes) {
        ports += (n.main_from == x ? 1 : 0) + (n.skip_from == x ? 1 : 0);
      }
    }
    const bool again = std::any_of(
        cuts.begin(), cuts.begin() + static_cast<std::ptrdiff_t>(k),
        [x](const LinkCut& c) { return c.after_node == x; });
    // The egress ring goes in front of the first ring that carries x's
    // values on — x's own, or a ring of a BnAct it feeds — as deep.
    const auto carries = [&](const PlannedStream& s) {
      if (s.role == PlannedStream::Role::kLinkOut) return false;
      int m = s.producer;
      while (m != x && m >= 0 && pipeline.node(m).kind == NodeKind::BnAct) {
        m = pipeline.node(m).main_from;
      }
      return m == x;
    };
    const auto at =
        ports == 1 && !again
            ? std::find_if(plan.streams.begin(), plan.streams.end(), carries)
            : plan.streams.end();
    QNN_CHECK(at != plan.streams.end(),
              "route_links: the cut after node " + std::to_string(x) +
                  " does not sever a single direct edge");
    PlannedStream out = *at;
    out.name = pipeline.node(x).name + "->" + cuts[k].config.name;
    out.role = PlannedStream::Role::kLinkOut;
    out.producer = x;
    out.consumer = -1;
    out.to_skip_port = false;
    out.bits = pipeline.node(x).out_bits;
    out.burst = std::max<std::size_t>(cuts[k].frame_values, 1);
    out.capacity = std::max(out.capacity, out.burst);
    out.link = static_cast<int>(k);
    plan.streams.insert(at, std::move(out));
  }
  // The direct rings a pump now writes are its link's ingress rings.
  for (PlannedStream& s : plan.streams) {
    if (s.role != PlannedStream::Role::kDirect) continue;
    const int link = ring_writer(pipeline, plan, s).link;
    if (link < 0) continue;
    s.name = cuts[static_cast<std::size_t>(link)].config.name + "->" +
             pipeline.node(s.consumer).name;
    s.role = PlannedStream::Role::kLinkIn;
    s.link = link;
  }
}

FifoPlan engine_fifos(const Pipeline& pipeline, const EngineOptions& options,
                      std::span<const LinkCut> cuts) {
  FifoPlan plan = options.plan != nullptr ? options.plan->fifos
                                          : plan_fifos(pipeline, options);
  route_links(pipeline, plan, cuts);
  return plan;
}

}  // namespace qnn
