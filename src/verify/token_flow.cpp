#include "verify/token_flow.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/error.h"
#include "dataflow/window_scanner.h"

namespace qnn {

const char* token_verdict_name(TokenVerdict v) {
  switch (v) {
    case TokenVerdict::kFeasible:
      return "feasible";
    case TokenVerdict::kDeadlock:
      return "deadlock";
    case TokenVerdict::kMarginal:
      return "marginal";
    case TokenVerdict::kUndecided:
      return "undecided";
  }
  return "?";
}

namespace {

/// One planned stream as a marked-graph place. `cap` is the effective
/// capacity: the planned ring in the tight model, plus the adjacent burst
/// buffers in the slack model (a chain FIFO -> InBurst -> OutStage moves
/// indistinguishable tokens, so for feasibility it is one place of the
/// summed capacity). Rings hold exactly their planned capacity
/// (ring_core.h), so the tight model has no hidden spare slots.
struct Place {
  std::int64_t cap = 0;
  std::int64_t q = 0;
  bool is_output = false;  // drained by the host collector: never full

  [[nodiscard]] std::int64_t space() const {
    return is_output ? std::numeric_limits<std::int64_t>::max() : cap - q;
  }
};

/// Exact consume->emit profile of a window kernel, replayed from its
/// WindowScanner: breakpoints[j] is the count of REAL input values
/// consumed when window j completes (padding positions consume nothing,
/// so trailing-pad windows complete at counts already reached).
struct WindowProfile {
  std::vector<std::int64_t> breakpoints;
  std::int64_t per_window = 0;  // values emitted per completed window

  /// Max values emitted across any span of `burst` consecutive
  /// consumptions — the most the implementation ever holds staged.
  [[nodiscard]] std::int64_t max_stage(std::int64_t burst) const {
    std::int64_t best = 0;
    std::size_t lo = 0;
    for (std::size_t hi = 0; hi < breakpoints.size(); ++hi) {
      while (breakpoints[hi] - breakpoints[lo] > burst) ++lo;
      best = std::max(best, static_cast<std::int64_t>(hi - lo + 1));
    }
    return best * per_window;
  }
};

WindowProfile window_profile(const Node& n) {
  WindowProfile p;
  p.per_window = n.kind == NodeKind::Conv ? n.out.c : n.in.c;
  WindowScanner sc(n.in, n.k, n.stride, n.pad);
  p.breakpoints.reserve(
      static_cast<std::size_t>(sc.out_h()) * static_cast<std::size_t>(sc.out_w()));
  std::int64_t consumed = 0;
  while (!sc.done()) {
    if (!sc.next_is_padding()) ++consumed;
    if (sc.advance()) p.breakpoints.push_back(consumed);
  }
  return p;
}

/// The in-burst capacity a window kernel actually allocates
/// (dataflow/kernels.cpp window_burst): at least one input row.
std::int64_t window_burst_of(const Node& n, std::int64_t planned) {
  const auto row =
      static_cast<std::int64_t>(n.in.w) * static_cast<std::int64_t>(n.in.c);
  return std::max({planned, row, std::int64_t{1}});
}

struct Transition {
  enum class Kind { kSource, kWindow, kAdd, kLink };
  Kind kind = Kind::kSource;
  std::string name;
  int node = -1;  // pipeline node (kWindow, kAdd)
  int in = -1;    // place index (main port)
  int skip = -1;  // place index (Add only)
  /// Output places: one per consumer port, written in lockstep — every
  /// value the transition emits enters all of them (OutStage).
  std::vector<int> outs;

  std::int64_t total = 0;     // values consumed per full run (main port)
  std::int64_t consumed = 0;  // main-port values consumed so far

  // kWindow and kLink.
  std::int64_t elems = 0;   // real values per image
  std::int64_t c = 0;       // consumed (kLink: framed) within the image
  std::int64_t staged = 0;  // emitted values awaiting output space

  // kWindow only.
  const WindowProfile* profile = nullptr;
  std::size_t widx = 0;     // next breakpoint
  int img = 0;

  // kLink only: the pump ships whole frames (an image's tail closes one).
  std::int64_t frame = 0;
  std::int64_t fill = 0;

  [[nodiscard]] bool done(int images) const {
    if (kind == Kind::kWindow) return img >= images;
    if (kind == Kind::kLink) return consumed >= total && staged == 0;
    return consumed >= total;
  }
};

class Simulation {
 public:
  Simulation(const Pipeline& p, const FifoPlan& plan, int images,
             bool with_slack)
      : images_(images) {
    const int n = p.size();
    std::vector<int> main_in(static_cast<std::size_t>(n), -1);
    std::vector<int> skip_in(static_cast<std::size_t>(n), -1);

    places_.resize(plan.streams.size());
    for (std::size_t e = 0; e < plan.streams.size(); ++e) {
      const PlannedStream& ps = plan.streams[e];
      places_[e].cap = static_cast<std::int64_t>(ps.capacity);
      places_[e].is_output = ps.role == PlannedStream::Role::kOutput;
      if (ps.consumer >= 0) {
        (ps.to_skip_port ? skip_in : main_in)[static_cast<std::size_t>(
            ps.consumer)] = static_cast<int>(e);
      }
    }

    // Burst slack, counted only in the refutation model: a window
    // kernel's port drains its FIFO one burst early (InBurst), an adder
    // stages one skip burst ahead of the regular path, and each producer
    // stages up to one refill's responses past a full ring (OutStage).
    // All sit in series with the planned ring, so they widen the places
    // they touch. The adder's regular port pops only what it immediately
    // adds onto staged output, so it adds no input-side slack.
    auto in_slack = [&](const PlannedStream& ps) -> std::int64_t {
      if (!with_slack || ps.consumer < 0) return 0;
      const Node& node = p.node(ps.consumer);
      const auto b = static_cast<std::int64_t>(ps.burst);
      if (node.is_window_op()) return window_burst_of(node, b);
      return node.kind == NodeKind::Add && ps.to_skip_port ? b : 0;
    };
    for (std::size_t e = 0; e < plan.streams.size(); ++e) {
      places_[e].cap += in_slack(plan.streams[e]);
    }

    // One transition per task, matching dataflow/engine.cpp: every node
    // but a BnAct, then the source. A BnAct is never a task: the port that
    // writes its input maps every value it is given to one code, so its
    // rings are that writer's output places.
    std::vector<int> task(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
      const Node& node = p.node(i);
      QNN_CHECK(node.kind == NodeKind::BnAct
                    ? main_in[static_cast<std::size_t>(i)] < 0
                    : main_in[static_cast<std::size_t>(i)] >= 0,
                "token flow: " + node.name +
                    (node.kind == NodeKind::BnAct
                         ? " is a BnAct with a planned input ring"
                         : " has no planned input edge"));
      if (node.kind == NodeKind::BnAct) continue;
      Transition t;
      t.name = node.name;
      t.node = i;
      t.in = main_in[static_cast<std::size_t>(i)];
      t.total = static_cast<std::int64_t>(node.in.elems()) * images_;
      if (node.is_window_op()) {
        t.kind = Transition::Kind::kWindow;
        profiles_.push_back(window_profile(node));
        t.elems = node.in.elems();
      } else {
        t.kind = Transition::Kind::kAdd;
        t.skip = skip_in[static_cast<std::size_t>(i)];
        QNN_CHECK(t.skip >= 0, "token flow: Add without a planned skip edge");
      }
      task[static_cast<std::size_t>(i)] =
          static_cast<int>(transitions_.size());
      transitions_.push_back(std::move(t));
    }
    // Profile pointers are taken only after profiles_ stops growing.
    for (std::size_t i = 0, w = 0; i < transitions_.size(); ++i) {
      if (transitions_[i].kind == Transition::Kind::kWindow) {
        transitions_[i].profile = &profiles_[w++];
      }
    }
    const auto source = static_cast<int>(transitions_.size());
    Transition src;
    src.name = "input";
    src.total = static_cast<std::int64_t>(p.input.elems()) * images_;
    transitions_.push_back(std::move(src));

    // One transition per link pump, from its egress ring to the rings it
    // writes. Its frame buffer is exact, not burst slack: the pump holds a
    // frame until it is complete in either model.
    std::vector<int> pump;  // by link
    for (std::size_t e = 0; e < plan.streams.size(); ++e) {
      const PlannedStream& ps = plan.streams[e];
      if (ps.role != PlannedStream::Role::kLinkOut) continue;
      QNN_CHECK(ps.link >= 0 && ps.producer >= 0 && ps.producer < n,
                "token flow: link without a cut node");
      if (pump.size() <= static_cast<std::size_t>(ps.link)) {
        pump.resize(static_cast<std::size_t>(ps.link) + 1, -1);
      }
      pump[static_cast<std::size_t>(ps.link)] =
          static_cast<int>(transitions_.size());
      Transition t;
      t.kind = Transition::Kind::kLink;
      t.name = ps.name;
      t.in = static_cast<int>(e);
      t.elems = p.node(ps.producer).out.elems();
      t.total = t.elems * images_;
      t.frame = static_cast<std::int64_t>(ps.burst);
      transitions_.push_back(std::move(t));
    }

    // Producer-side wiring: every ring to the task that writes it.
    for (std::size_t e = 0; e < plan.streams.size(); ++e) {
      const RingWriter w = ring_writer(p, plan, plan.streams[e]);
      const int writer =
          w.link >= 0 ? (static_cast<std::size_t>(w.link) < pump.size()
                             ? pump[static_cast<std::size_t>(w.link)]
                             : -1)
          : w.node < 0 ? source
          : w.node < n ? task[static_cast<std::size_t>(w.node)]
                       : -1;
      QNN_CHECK(writer >= 0,
                "token flow: ring " + plan.streams[e].name + " has no writer");
      transitions_[static_cast<std::size_t>(writer)].outs.push_back(
          static_cast<int>(e));
    }
    for (const Transition& t : transitions_) {
      QNN_CHECK(!t.outs.empty(),
                "token flow: " + t.name + " writes no planned stream");
    }

    if (with_slack) {
      // Producer-side OutStage slack, on every ring the port writes: a
      // ring takes staged values independently of its siblings, so each
      // may run up to the whole stage ahead of the lockstep model (window
      // kernels compute the stage from the scan geometry; Add stages at
      // most one popped skip burst). The feeder pushes straight from the
      // image, so only a fanned-out input lets one ring run ahead, by at
      // most the rest of the image. Pumps are exact.
      for (const Transition& t : transitions_) {
        std::int64_t stage = 0;
        switch (t.kind) {
          case Transition::Kind::kWindow: {
            const auto b = static_cast<std::int64_t>(
                plan.streams[static_cast<std::size_t>(t.in)].burst);
            stage = t.profile->max_stage(
                window_burst_of(p.node(t.node), b));
            break;
          }
          case Transition::Kind::kAdd:
            stage = static_cast<std::int64_t>(
                plan.streams[static_cast<std::size_t>(t.skip)].burst);
            break;
          case Transition::Kind::kSource:
            if (t.outs.size() > 1) stage = p.input.elems();
            break;
          case Transition::Kind::kLink:
            break;
        }
        for (const int e : t.outs) {
          places_[static_cast<std::size_t>(e)].cap += stage;
        }
      }
    }
    plan_ = &plan;
  }

  /// Greedy maximal-progress run. Returns kFeasible / kDeadlock /
  /// kUndecided (budget); the marginal verdict is composed by the caller.
  TokenVerdict run(const TokenFlowBudget& budget, std::int64_t* tokens_out) {
    std::int64_t tokens = 0;
    std::int64_t sweeps = 0;
    bool moved = true;
    while (moved) {
      if (++sweeps > budget.max_sweeps || tokens > budget.max_tokens) {
        *tokens_out = tokens;
        return TokenVerdict::kUndecided;
      }
      moved = false;
      for (Transition& t : transitions_) moved |= fire(t, tokens);
      // The host collector drains terminal streams continuously.
      for (Place& pl : places_) {
        if (pl.is_output) pl.q = 0;
      }
    }
    *tokens_out = tokens;
    for (const Transition& t : transitions_) {
      if (!t.done(images_)) return TokenVerdict::kDeadlock;
    }
    return TokenVerdict::kFeasible;
  }

  /// Quiescent marking: every unfinished transition with the port it is
  /// starved or jammed on.
  [[nodiscard]] std::string witness() const {
    std::string w;
    for (const Transition& t : transitions_) {
      if (t.done(images_)) continue;
      if (!w.empty()) w += "; ";
      w += t.name + " blocked on ";
      std::string why;
      auto starved = [&](int e, const char* port) {
        if (e >= 0 && places_[static_cast<std::size_t>(e)].q == 0) {
          if (!why.empty()) why += " + ";
          why += std::string(port) + " '" +
                 plan_->streams[static_cast<std::size_t>(e)].name + "' empty";
        }
      };
      auto jammed = [&](int e) {
        if (e >= 0 && places_[static_cast<std::size_t>(e)].space() == 0) {
          const PlannedStream& ps = plan_->streams[static_cast<std::size_t>(e)];
          if (!why.empty()) why += " + ";
          why += "'" + ps.name + "' full (" + std::to_string(ps.capacity) +
                 " values)";
        }
      };
      if (t.kind != Transition::Kind::kSource) starved(t.in, "input");
      starved(t.skip, "skip input");
      for (const int e : t.outs) jammed(e);
      w += why.empty() ? std::string("internal stage") : why;
    }
    return w;
  }

 private:
  /// Room on every output place of `t`: what it can emit in lockstep.
  [[nodiscard]] std::int64_t out_space(const Transition& t) const {
    std::int64_t room = std::numeric_limits<std::int64_t>::max();
    for (const int e : t.outs) {
      room = std::min(room, places_[static_cast<std::size_t>(e)].space());
    }
    return room;
  }

  /// Emit `k` values into every output place of `t`.
  void emit(const Transition& t, std::int64_t k, std::int64_t& tokens) {
    for (const int e : t.outs) places_[static_cast<std::size_t>(e)].q += k;
    tokens += k;
  }

  bool fire(Transition& t, std::int64_t& tokens) {
    switch (t.kind) {
      case Transition::Kind::kSource: {
        const std::int64_t k = std::min(t.total - t.consumed, out_space(t));
        if (k <= 0) return false;
        emit(t, k, tokens);
        t.consumed += k;
        return true;
      }
      case Transition::Kind::kAdd: {
        Place& a = places_[static_cast<std::size_t>(t.in)];
        Place& b = places_[static_cast<std::size_t>(t.skip)];
        const std::int64_t k =
            std::min({a.q, b.q, out_space(t), t.total - t.consumed});
        if (k <= 0) return false;
        a.q -= k;
        b.q -= k;
        emit(t, k, tokens);
        t.consumed += k;
        return true;
      }
      case Transition::Kind::kWindow:
        return fire_window(t, tokens);
      case Transition::Kind::kLink:
        return fire_link(t, tokens);
    }
    return false;
  }

  bool fire_link(Transition& t, std::int64_t& tokens) {
    Place& in = places_[static_cast<std::size_t>(t.in)];
    bool progressed = false;
    for (;;) {
      // A delivered frame is pushed out before the next one is filled
      // (LinkPump::step).
      if (t.staged > 0) {
        const std::int64_t m = std::min(t.staged, out_space(t));
        if (m <= 0) return progressed;
        t.staged -= m;
        emit(t, m, tokens);
        progressed = true;
        continue;
      }
      const std::int64_t want = std::min(t.frame, t.elems - t.c);
      const std::int64_t k =
          std::min({in.q, want - t.fill, t.total - t.consumed});
      if (k <= 0) return progressed;
      in.q -= k;
      t.fill += k;
      t.consumed += k;
      tokens += k;
      progressed = true;
      if (t.fill < want) continue;
      t.staged = want;
      t.fill = 0;
      t.c = (t.c + want) % t.elems;
    }
  }

  bool fire_window(Transition& t, std::int64_t& tokens) {
    Place& in = places_[static_cast<std::size_t>(t.in)];
    const std::vector<std::int64_t>& bp = t.profile->breakpoints;
    bool progressed = false;
    for (;;) {
      // Flush staged responses first: the kernel consumes nothing while
      // its OutStage holds values (dataflow/kernels.cpp step()).
      if (t.staged > 0) {
        const std::int64_t m = std::min(t.staged, out_space(t));
        if (m > 0) {
          t.staged -= m;
          emit(t, m, tokens);
          progressed = true;
        }
        if (t.staged > 0) return progressed;
      }
      if (t.img >= images_) return progressed;
      // Windows whose bottom-right corner is a padding position complete
      // without consuming input.
      if (t.widx < bp.size() && bp[t.widx] <= t.c) {
        t.staged += t.profile->per_window;
        ++t.widx;
        continue;
      }
      if (t.c == t.elems) {
        // Image complete (all its windows emitted above); re-arm.
        t.c = 0;
        t.widx = 0;
        ++t.img;
        progressed = true;
        continue;
      }
      // Consume up to the value that completes the next window.
      const std::int64_t next = t.widx < bp.size() ? bp[t.widx] : t.elems;
      const std::int64_t k = std::min(in.q, next - t.c);
      if (k <= 0) return progressed;
      in.q -= k;
      t.c += k;
      t.consumed += k;
      tokens += k;
      progressed = true;
    }
  }

  int images_;
  const FifoPlan* plan_ = nullptr;
  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  std::vector<WindowProfile> profiles_;
};

}  // namespace

TokenFlowResult prove_token_flow(const Pipeline& pipeline, const FifoPlan& plan,
                                 const TokenFlowBudget& budget) {
  TokenFlowResult result;

  // Tight model: no burst slack. Completion proves deadlock-freedom for
  // every schedule (real runs only ever have MORE buffering, and growing
  // buffers never creates a deadlock in a Kahn network).
  Simulation tight(pipeline, plan, budget.images, /*with_slack=*/false);
  const TokenVerdict tv = tight.run(budget, &result.tokens_moved);
  if (tv == TokenVerdict::kFeasible || tv == TokenVerdict::kUndecided) {
    result.verdict = tv;
    return result;
  }
  const std::string tight_witness = tight.witness();

  // Slack model: every burst buffer counted at full size. Deadlock here
  // refutes feasibility — no schedule can see more buffering than this.
  Simulation slack(pipeline, plan, budget.images, /*with_slack=*/true);
  const TokenVerdict sv = slack.run(budget, &result.tokens_moved);
  if (sv == TokenVerdict::kDeadlock) {
    result.verdict = TokenVerdict::kDeadlock;
    result.witness = slack.witness();
  } else if (sv == TokenVerdict::kFeasible) {
    result.verdict = TokenVerdict::kMarginal;
    result.witness = tight_witness;
  } else {
    result.verdict = TokenVerdict::kUndecided;
  }
  return result;
}

}  // namespace qnn
