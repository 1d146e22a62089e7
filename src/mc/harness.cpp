#include "mc/harness.h"

#include <memory>
#include <sstream>
#include <vector>

#include "dataflow/ring_core.h"

namespace qnn::mc {
namespace {

/// Per-execution scenario state. Fibers capture it via shared_ptr; locals
/// on fiber stacks stay trivially destructible (an execution cut short by
/// a violation frees fiber stacks without unwinding them).
template <class Mutations>
struct State {
  struct Pipe {
    std::unique_ptr<RingCore<ModelSync>> ring;
    std::vector<int> buf;  // payload slots (plain memory; see model.h)
    int produced = 0;
    int consumed = 0;
    int next = 0;  // next value the consumer must observe
  };

  struct Hook final : public ReadyHook {
    State* st = nullptr;
    void wake(int task) override {
      st->proto.wake(task, [this](int t) {
        Model::current()->op_queue_push(st->queue, t);
      });
    }
  };

  explicit State(const Scenario& s)
      : scenario(s), proto(static_cast<std::size_t>(2 * s.pipes)) {}

  Scenario scenario;
  ReadyProtocol<ModelSync, Mutations> proto;
  std::vector<Pipe> pipes;
  std::vector<char> running;  // double-run detector (plain memory)
  int remaining = 0;
  int queue = -1;
  Hook hook;

  // Task t in [0, pipes) produces into pipe t; task pipes + p consumes
  // from pipe p — the same topological producer/consumer split the
  // engine's task list has.
  ProtoStep step_task(int t) {
    Model& m = *Model::current();
    if (running[static_cast<std::size_t>(t)] != 0) {
      m.fail("double-run: task " + std::to_string(t) +
             " stepped by two workers at once");
      return ProtoStep::kDone;
    }
    running[static_cast<std::size_t>(t)] = 1;
    const ProtoStep r = do_step(m, t);
    running[static_cast<std::size_t>(t)] = 0;
    return r;
  }

  ProtoStep do_step(Model& m, int t) {
    const int n = scenario.pipes;
    if (t < n) {  // producer
      Pipe& p = pipes[static_cast<std::size_t>(t)];
      const RingWindow w = p.ring->push_window(1);
      if (w.count == 0) return ProtoStep::kBlocked;
      p.buf[p.ring->slot(w.start)] = p.produced;
      p.ring->commit_push(w, 1);
      if (++p.produced == scenario.values) {
        p.ring->close();
        return ProtoStep::kDone;
      }
      return ProtoStep::kProgress;
    }
    // consumer
    Pipe& p = pipes[static_cast<std::size_t>(t - n)];
    const RingWindow w = p.ring->pop_window(1);
    if (w.count == 0) {
      return p.ring->drained() ? ProtoStep::kDone : ProtoStep::kBlocked;
    }
    const int v = p.buf[p.ring->slot(w.start)];
    if (v != p.next) {
      m.fail("value integrity: pipe " + std::to_string(t - n) + " popped " +
             std::to_string(v) + ", expected " + std::to_string(p.next));
      return ProtoStep::kDone;
    }
    ++p.next;
    ++p.consumed;
    p.ring->commit_pop(w, 1);
    return ProtoStep::kProgress;
  }

  void worker() {
    Model& m = *Model::current();
    for (;;) {
      const std::int64_t v = m.op_queue_pop(queue);
      if (v < 0) return;  // stop sentinel
      const int t = static_cast<int>(v);
      if (!proto.claim(t)) continue;
      const DriveResult r = proto.drive(t, [this, t] { return step_task(t); });
      if (r == DriveResult::kCompleted && --remaining == 0) {
        for (int w = 0; w < scenario.workers; ++w) {
          m.op_queue_push(queue, -1);
        }
      }
    }
  }
};

template <class Mutations>
Model::Result run(const Scenario& s) {
  using St = State<Mutations>;
  // The verdict closure outlives each execution's state; the slot always
  // points at the current execution's.
  auto slot = std::make_shared<std::shared_ptr<St>>();

  auto setup = [slot, s]() {
    Model& m = *Model::current();
    auto st = std::make_shared<St>(s);
    *slot = st;

    // ReadyProtocol's slots are locations [0, 2*pipes); name them.
    for (int t = 0; t < 2 * s.pipes; ++t) {
      m.name_location(t, "task" + std::to_string(t) + ".state");
    }
    st->pipes.resize(static_cast<std::size_t>(s.pipes));
    for (int p = 0; p < s.pipes; ++p) {
      auto& pipe = st->pipes[static_cast<std::size_t>(p)];
      const int before = m.location_count();
      pipe.ring = std::make_unique<RingCore<ModelSync>>(
          static_cast<std::size_t>(s.capacity));
      m.name_location(before, "pipe" + std::to_string(p) + ".head");
      m.name_location(before + 1, "pipe" + std::to_string(p) + ".tail");
      m.name_location(before + 2, "pipe" + std::to_string(p) + ".closed");
      pipe.buf.assign(pipe.ring->capacity(), -1);
      pipe.ring->bind_producer(&st->hook, p);
      pipe.ring->bind_consumer(&st->hook, s.pipes + p);
    }
    st->hook.st = st.get();
    st->running.assign(static_cast<std::size_t>(2 * s.pipes), 0);
    st->remaining = 2 * s.pipes;
    st->queue = m.create_queue("runq");
    // Initial population: every task starts kReady and queued, as the
    // production scheduler seeds its deques before workers start.
    for (int t = 0; t < 2 * s.pipes; ++t) m.queue_seed(st->queue, t);
    for (int w = 0; w < s.workers; ++w) {
      auto keep = st;  // fiber body owns the state
      m.add_thread([keep] { keep->worker(); });
    }
  };

  auto verdict = [slot]() -> std::string {
    const St& st = **slot;
    std::ostringstream os;
    if (st.remaining != 0) {
      os << st.remaining << " task(s) unfinished:";
      for (int t = 0; t < 2 * st.scenario.pipes; ++t) {
        if (st.proto.peek(t) != TaskState::kDone) {
          os << ' ' << (t < st.scenario.pipes ? "producer" : "consumer")
             << t << "=in-flight";
        }
      }
      return os.str();
    }
    for (int p = 0; p < st.scenario.pipes; ++p) {
      const auto& pipe = st.pipes[static_cast<std::size_t>(p)];
      if (pipe.produced != st.scenario.values ||
          pipe.consumed != st.scenario.values) {
        os << "value integrity: pipe " << p << " pushed " << pipe.produced
           << ", popped " << pipe.consumed << " of " << st.scenario.values;
        return os.str();
      }
    }
    return "";
  };

  Model model;
  return model.explore(s.budget, setup, verdict);
}

}  // namespace

Model::Result check_protocol(const Scenario& s) {
  return run<NoProtocolMutations>(s);
}

template <class Mutations>
Model::Result check_protocol_mutated(const Scenario& s) {
  return run<Mutations>(s);
}

template Model::Result check_protocol_mutated<NoProtocolMutations>(
    const Scenario&);
template Model::Result check_protocol_mutated<MutSkipWakeFence>(
    const Scenario&);
template Model::Result check_protocol_mutated<MutSkipRestep>(const Scenario&);
template Model::Result check_protocol_mutated<MutDropNotify>(const Scenario&);

std::string describe(const Scenario& s) {
  std::ostringstream os;
  os << s.pipes << " producer(s) x " << s.pipes << " consumer(s), "
     << s.workers << " workers, " << s.values << " values, capacity "
     << s.capacity << ", preemption bound " << s.budget.preemption_bound;
  return os.str();
}

void to_report(const Scenario& s, const Model::Result& result,
               Report& report) {
  for (const Model::Violation& v : result.violations) {
    const char* code = diag::kProtoDeadlock;
    if (v.what.find("double-run") != std::string::npos) {
      code = diag::kProtoDoubleRun;
    } else if (v.what.find("value integrity") != std::string::npos) {
      code = diag::kProtoLinearize;
    }
    report.error(code, -1, "mc", v.what + "\n" + v.trace);
  }
  if (result.stats.budget_exhausted) {
    report.warn(diag::kProtoBudget, -1, "mc",
                "exploration budget exhausted after " +
                    std::to_string(result.stats.executions) +
                    " interleavings (" + describe(s) +
                    "): verdict holds only for the explored prefix");
  }
  if (result.ok()) {
    std::ostringstream os;
    os << "explored " << result.stats.executions << " interleavings ("
       << result.stats.pruned << " pruned, "
       << (result.stats.complete ? "complete" : "bounded") << ", "
       << describe(s)
       << "): no lost wakeup, no deadlock, no double-run, streams "
          "linearizable";
    report.info(diag::kProtoExplored, -1, "mc", os.str());
  }
}

}  // namespace qnn::mc
