// Deterministic concurrency model checker (loom/relacy-style) for the
// lock-free stream/scheduler protocols.
//
// The protocol templates (dataflow/ring_core.h, dataflow/ready_protocol.h)
// perform every atomic operation through the Sync seam (dataflow/sync.h).
// This header provides the checker side of that seam: ModelSync routes
// each load, store, RMW and fence into a Model, which runs the protocol
// code on *virtual threads* (ucontext fibers, all on one OS thread) and
// explores the interleavings by depth-first search with replay.
//
// Memory model. Sequential consistency alone would miss the bugs the
// protocol's fences exist to prevent, so the Model implements a
// release/acquire machine with vector clocks:
//
//   * every atomic location keeps its full store history; a store is
//     stamped with the writer's clock and, when releasing, snapshots the
//     writer's whole vector clock;
//   * a load may return ANY store that is (a) not older than a store the
//     thread has already read from that location (coherence) and (b) not
//     older than a store the thread is causally aware of (its clock
//     covers the store's stamp). Reading a stale-but-admissible store is
//     a nondeterministic choice the explorer branches on;
//   * an acquire load of a release store joins the reader's clock with
//     the store's snapshot (happens-before edge);
//   * RMWs (CAS, fetch_add) always read the newest store — C++ atomicity;
//   * seq_cst fences join bidirectionally with a global SC clock. Fences
//     are totally ordered by execution, so two Dekker-paired fences
//     guarantee that at least one side observes the other's prior stores
//     — exactly the property wake()/drive() rely on.
//
// Approximations, stated: modification order equals execution order
// (standard in dynamic checkers), compare_exchange_weak never fails
// spuriously, and non-atomic payload memory is not race-checked (all
// fibers share one address space; TSan covers payload publication). The
// checker verifies the *index/wake protocol*, which is where lost-wakeup
// and deadlock bugs live.
//
// Exploration. Each scheduling point picks one runnable fiber; each load
// with several admissible stores forks on the value. The search is
// reduced by (a) sleep sets — a thread explored at a state is not
// re-explored from sibling branches until a dependent operation wakes it
// (DPOR-style, sound w.r.t. Mazurkiewicz-trace equivalence) — and
// bounded by (b) a preemption budget (CHESS-style: voluntary switches at
// blocking points are free, involuntary preemptions are counted) plus an
// execution/step budget. Results therefore read "exhaustive within the
// stated preemption bound", which is the bound the mc tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <ucontext.h>

namespace qnn::mc {

inline constexpr int kMaxThreads = 8;

/// Fixed-width vector clock over virtual threads.
struct VClock {
  std::uint32_t c[kMaxThreads] = {};

  void join(const VClock& o) {
    for (int i = 0; i < kMaxThreads; ++i) {
      if (o.c[i] > c[i]) c[i] = o.c[i];
    }
  }
  [[nodiscard]] bool covers(int thread, std::uint32_t stamp) const {
    return c[thread] >= stamp;
  }
};

enum class OpKind : std::uint8_t {
  kLoad,
  kStore,
  kCas,
  kFetchAdd,
  kFence,
  kQueuePush,
  kQueuePop,
};

[[nodiscard]] const char* op_name(OpKind k);

/// How one execution of the scenario ended.
enum class RunOutcome : std::uint8_t {
  kFinished,    // every fiber returned
  kDeadlock,    // no fiber runnable, at least one blocked — lost wakeup
  kFailed,      // the harness flagged a property violation mid-run
  kStepBudget,  // per-execution step cap hit (livelock suspect)
  kPruned,      // redundant interleaving cut by the sleep set
};

class Model {
 public:
  Model();
  ~Model();

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// The model an execution is running under; ModelSync's atomics resolve
  /// through this. Only one Model is ever active (single OS thread).
  [[nodiscard]] static Model* current();

  // ---- per-execution setup (called by the harness each execution) -------

  /// Register an atomic location with its initial value. The initial
  /// store is visible to every fiber.
  int new_location(std::uint64_t initial);
  /// Attach a debug name used in violation traces ("pipe0.head", ...).
  void name_location(int loc, std::string name);
  [[nodiscard]] int location_count() const;

  /// A mutex+condvar style task queue: push/pop are single visible ops
  /// with lock semantics (each op joins and updates the queue's clock),
  /// and a pop on an empty queue blocks the fiber until a push arrives —
  /// an *ideal* parking lot. The production parking lot is timed (its
  /// timeouts mask lost notifies by design), so the checker excludes the
  /// backstop: any quiescent state with work remaining is a genuine
  /// protocol bug, not a scheduling accident.
  int create_queue(std::string name);
  /// Seed a queue before fibers start (no visible op, no clock effect).
  void queue_seed(int queue, std::int64_t v);

  /// Register a fiber. Bodies run when explore_one() is called.
  void add_thread(std::function<void()> body);

  /// Flag a harness-level property violation; the execution stops at the
  /// next scheduling point and is reported with its trace.
  void fail(std::string what);

  // ---- operations (called through ModelSync from protocol code) ---------

  std::uint64_t op_load(int loc, bool acquire);
  void op_store(int loc, std::uint64_t v, bool release);
  bool op_cas(int loc, std::uint64_t& expected, std::uint64_t desired);
  std::uint64_t op_fetch_add(int loc, std::uint64_t delta);
  void op_fence_seq_cst();
  void op_queue_push(int queue, std::int64_t v);
  [[nodiscard]] std::int64_t op_queue_pop(int queue);

  // ---- exploration ------------------------------------------------------

  struct Budget {
    int preemption_bound = 3;          // involuntary switches per execution
    std::uint64_t max_executions = 200000;
    std::uint64_t max_steps = 20000;   // visible ops per execution
    std::uint64_t max_millis = 0;      // 0 = no wall-clock cap
    bool sleep_sets = true;            // DPOR-style sibling pruning
    bool stop_on_first = true;         // stop exploring after a violation
  };

  struct Stats {
    std::uint64_t executions = 0;  // complete interleavings run
    std::uint64_t pruned = 0;      // cut by the sleep set
    std::uint64_t transitions = 0; // visible ops executed, total
    std::uint64_t max_depth = 0;   // deepest decision stack
    bool budget_exhausted = false; // executions/wall-clock cap hit
    bool complete = false;         // decision tree fully explored
  };

  struct Violation {
    std::string what;   // property + detail, first line is the headline
    std::string trace;  // one executed op per line
  };

  /// Explore the scenario: `setup` is invoked once per execution on a
  /// fresh model state and must register locations/queues/fibers;
  /// `verdict` is invoked after each complete execution to check final-
  /// state properties (return a non-empty string to flag a violation).
  struct Result {
    Stats stats;
    std::vector<Violation> violations;
    [[nodiscard]] bool ok() const { return violations.empty(); }
  };
  Result explore(const Budget& budget, const std::function<void()>& setup,
                 const std::function<std::string()>& verdict);

  /// Deterministic single execution (first-choice schedule); used by the
  /// harness smoke paths and the CLI's --trace mode.
  RunOutcome run_once(const std::function<void()>& setup, std::string* trace);

 private:
  struct Store {
    std::uint64_t value = 0;
    int writer = -1;          // -1: initial store, covered by everyone
    std::uint32_t stamp = 0;  // writer's clock at the store
    bool release = false;
    VClock clock;             // writer snapshot (meaningful when release)
  };
  struct Location {
    std::string name;
    std::vector<Store> history;
    bool is_queue = false;
    VClock queue_clock;            // lock-style clock for queues
    std::deque<std::int64_t> q;   // queue payload
  };
  struct PendingOp {
    OpKind kind = OpKind::kLoad;
    int loc = -1;
    std::uint64_t arg0 = 0;  // store value / CAS desired / fetch_add delta
    std::uint64_t arg1 = 0;  // CAS expected
    bool ordered = false;    // acquire (loads) / release (stores)
    // results, filled by the scheduler before the fiber resumes:
    std::uint64_t result = 0;
    bool flag = false;       // CAS success
  };
  enum class FiberState : std::uint8_t {
    kRunnable,
    kBlocked,   // parked on an empty queue
    kFinished,
  };
  struct Fiber {
    ucontext_t ctx = {};      // portable fallback context
    void* sp = nullptr;       // fast-path saved stack pointer (x86-64)
    std::unique_ptr<char[]> stack;
    FiberState state = FiberState::kRunnable;
    PendingOp op;
    VClock clock;
    std::vector<std::uint32_t> coherence;  // per location: min readable idx
    int blocked_on = -1;                   // queue id when kBlocked
    std::function<void()> body;
  };
  struct Decision {
    bool schedule = false;  // schedule node vs load-value node
    int chosen = 0;
    int num = 0;
    int chosen_thread = -1;   // schedule nodes: fiber picked at `chosen`
    std::uint32_t explored = 0;  // schedule nodes: fiber mask already done
  };
  struct TraceOp {
    std::int8_t tid;
    OpKind kind;
    std::int16_t loc;
    std::uint64_t value;
    std::uint64_t result;
    bool flag;
  };

  static void trampoline();

  void reset_execution();
  RunOutcome run_execution();
  void schedule_loop();
  int pick_fiber();
  void execute_pending(int tid);
  int choose(bool schedule_node, int num, int chosen_thread_hint);
  [[nodiscard]] bool backtrack();
  [[nodiscard]] bool dependent(const PendingOp& a, const PendingOp& b) const;
  void yield_op(const PendingOp& op);  // fiber side: publish op + swap out
  void record(int tid, const PendingOp& op);
  [[nodiscard]] std::string format_trace() const;
  [[nodiscard]] std::uint32_t min_readable(const Fiber& f, int loc) const;

  // execution state (reset per execution)
  std::vector<Location> locs_;
  std::vector<Fiber> fibers_;
  VClock sc_clock_;
  int running_ = -1;       // fiber currently holding the CPU (-1: scheduler)
  int last_ran_ = -1;      // previous scheduled fiber (preemption counting)
  int preemptions_ = 0;
  std::uint32_t cur_sleep_ = 0;  // sleep-set fiber mask along this path
  std::uint64_t steps_ = 0;
  std::string failure_;
  std::vector<TraceOp> trace_;
  ucontext_t sched_ctx_ = {};  // portable fallback
  void* sched_sp_ = nullptr;   // fast-path saved stack pointer (x86-64)

  // exploration state (persists across executions of one explore())
  std::vector<Decision> stack_;
  std::size_t depth_ = 0;
  Budget budget_;
  bool deterministic_ = false;  // run_once: always take the first choice

  static Model* current_;
};

/// The checker-side Sync policy (see dataflow/sync.h for the contract).
/// Values are encoded through uint64_t; T must be integral, bool or enum.
struct ModelSync {
  template <class T>
  class Atomic {
   public:
    Atomic() : loc_(Model::current()->new_location(0)) {}
    explicit Atomic(T v)
        : loc_(Model::current()->new_location(encode(v))) {}

    [[nodiscard]] T load(std::memory_order order) const {
      return decode(Model::current()->op_load(loc_, wants_acquire(order)));
    }
    void store(T v, std::memory_order order) {
      Model::current()->op_store(loc_, encode(v), wants_release(order));
    }
    bool compare_exchange_strong(T& expected, T desired, std::memory_order) {
      std::uint64_t e = encode(expected);
      const bool ok = Model::current()->op_cas(loc_, e, encode(desired));
      if (!ok) expected = decode(e);
      return ok;
    }
    bool compare_exchange_weak(T& expected, T desired,
                               std::memory_order order) {
      // The model never fails spuriously (strong ⊂ weak behaviours).
      return compare_exchange_strong(expected, desired, order);
    }
    T fetch_add(T delta, std::memory_order) {
      return decode(Model::current()->op_fetch_add(loc_, encode(delta)));
    }

    [[nodiscard]] int loc() const { return loc_; }

   private:
    static std::uint64_t encode(T v) { return static_cast<std::uint64_t>(v); }
    static T decode(std::uint64_t v) { return static_cast<T>(v); }
    static bool wants_acquire(std::memory_order o) {
      return o == std::memory_order_acquire || o == std::memory_order_acq_rel ||
             o == std::memory_order_seq_cst;
    }
    static bool wants_release(std::memory_order o) {
      return o == std::memory_order_release || o == std::memory_order_acq_rel ||
             o == std::memory_order_seq_cst;
    }

    int loc_;
  };

  static void fence_seq_cst() { Model::current()->op_fence_seq_cst(); }
};

}  // namespace qnn::mc
