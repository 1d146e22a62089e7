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

std::vector<int> FifoPlan::cut_after() const {
  std::vector<int> out;
  for (const PlannedStream& s : streams) {
    if (s.role == PlannedStream::Role::kLinkOut) out.push_back(s.producer);
  }
  return out;
}

bool fuses_into_conv(const Pipeline& pipeline, int node,
                     std::span<const int> cut_after) {
  if (node < 0 || node >= pipeline.size()) return false;
  const Node& n = pipeline.node(node);
  const int p = n.main_from;
  return n.kind == NodeKind::BnAct && p >= 0 && p < node &&
         pipeline.node(p).kind == NodeKind::Conv &&
         pipeline.consumers(p) == std::vector<int>{node} &&
         std::find(cut_after.begin(), cut_after.end(), p) == cut_after.end();
}

std::size_t line_buffer_values(const Node& n) {
  QNN_DCHECK(n.is_window_op(), "line buffer of a non-window kernel");
  const std::int64_t wp = n.in.w + 2 * n.pad;
  return static_cast<std::size_t>(static_cast<std::int64_t>(n.in.c) *
                                  (wp * (n.k - 1) + n.k));
}

FifoPlan plan_fifos(const Pipeline& pipeline, const EngineOptions& options,
                    std::span<const int> cut_after) {
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
        return static_cast<std::size_t>(shape.elems()) + options.skip_slack;
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

    if (consumers.size() == 1 && !consumers.front().skip &&
        fuses_into_conv(pipeline, consumers.front().node, cut_after)) {
      return;  // the conv's kernel evaluates the BnAct: no ring between
    }
    if (consumers.empty()) {
      stream(pname + "->output", PlannedStream::Role::kOutput, -1, false,
             plain_capacity);
      return;
    }
    // One ring per consumer port; a fanned-out producer writes them all.
    const char* arrow = consumers.size() == 1 ? "->" : "=>";
    for (const ConsumerPort& c : consumers) {
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

void route_links(const Pipeline& pipeline, FifoPlan& plan,
                 std::span<const LinkCut> cuts, const EngineOptions& sizing) {
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const LinkCut& cut = cuts[k];
    const auto direct = [&](const PlannedStream& s) {
      return s.producer == cut.after_node &&
             s.role == PlannedStream::Role::kDirect;
    };
    auto it = std::find_if(plan.streams.begin(), plan.streams.end(), direct);
    if (it == plan.streams.end() && cut.after_node >= 0 &&
        cut.after_node < pipeline.size()) {
      const std::vector<int> next = pipeline.consumers(cut.after_node);
      if (next.size() == 1 && fuses_into_conv(pipeline, next.front())) {
        // The cut splits a fused pair: plan its edge as if never fused,
        // in producer order.
        const FifoPlan split = plan_fifos(
            pipeline, sizing, std::span<const int>(&cut.after_node, 1));
        const auto edge =
            std::find_if(split.streams.begin(), split.streams.end(), direct);
        QNN_CHECK(edge != split.streams.end(),
                  "route_links: split pair without a planned edge");
        it = plan.streams.insert(
            std::find_if(plan.streams.begin(), plan.streams.end(),
                         [&](const PlannedStream& s) {
                           return s.producer > cut.after_node;
                         }),
            *edge);
      }
    }
    QNN_CHECK(it != plan.streams.end() && cut.after_node >= 0 &&
                  std::count_if(plan.streams.begin(), plan.streams.end(),
                                direct) == 1,
              "route_links: the cut after node " +
                  std::to_string(cut.after_node) +
                  " does not sever a single direct edge");
    PlannedStream in = *it;
    in.name = cut.config.name + "->" + pipeline.node(in.consumer).name;
    in.role = PlannedStream::Role::kLinkIn;
    in.link = static_cast<int>(k);
    PlannedStream out = *it;
    out.name = pipeline.node(cut.after_node).name + "->" + cut.config.name;
    out.role = PlannedStream::Role::kLinkOut;
    out.consumer = -1;
    out.to_skip_port = false;
    out.burst = std::max<std::size_t>(cut.frame_values, 1);
    out.capacity = std::max(out.capacity, out.burst);
    out.link = static_cast<int>(k);
    *it = std::move(in);
    plan.streams.insert(it, std::move(out));
  }
}

FifoPlan engine_fifos(const Pipeline& pipeline, const EngineOptions& options,
                      std::span<const LinkCut> cuts) {
  EngineOptions sizing = options;
  if (options.plan != nullptr) options.plan->apply_engine(sizing);
  FifoPlan plan = options.plan != nullptr ? options.plan->fifos
                                          : plan_fifos(pipeline, options);
  route_links(pipeline, plan, cuts, sizing);
  return plan;
}

}  // namespace qnn
