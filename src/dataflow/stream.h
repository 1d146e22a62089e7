// Bounded single-producer / single-consumer stream with burst transfers.
//
// Models the on-chip FIFOs that connect DFE kernels: "data are transferred
// using configurable routing resources, buffered on-chip memory, and
// flip-flops" (§II-B). The declared bit width is metadata used by the link
// bandwidth model and the resource estimator, while the functional payload
// is a full int32.
//
// The hardware moves one value per clock; the software analog used to do
// the same — one atomic acquire/release pair per int32 — which made the
// hot path atomic ping-pong instead of XNOR-popcount work. Transfers are
// therefore *burst*-oriented: try_push_burst()/try_pop_burst() move a
// run of ring positions with a single index update per burst (the
// widened, compute-rate-folded transport of FINN-style dataflow engines).
// The ring is allocated at exactly its capacity, so a burst that wraps is
// two memcpy calls, never a per-value index mask. A burst of one is still
// legal, so capacity models the FIFO depth precisely and `pushed()` still
// counts values.
//
// The API never blocks: a transfer moves what fits (possibly nothing) and
// returns. Kernels are resumable tasks (kernels.h) that report kBlocked
// instead of waiting, and the executor re-queues them when the ReadyHook
// seam below says the edge they blocked on became serviceable again.
//
// The index publication protocol itself — head/tail/closed plus the
// wake-after-transaction contract with the ready-queue scheduler — lives
// in ring_core.h as RingCore<Sync>, templated on the synchronization seam
// (sync.h). Stream instantiates it with RealSync (std::atomic verbatim);
// the model checker (src/mc) explores the SAME protocol template on
// virtual threads. Stream adds what the checker does not need: the
// payload buffer, fault injection and the traffic counters.
//
// Counter semantics (RunStats / stream_traffic() / the link-bandwidth
// model / ServerMetrics read these):
//   * pushed()       — total VALUES pushed (a burst of n counts n);
//   * transactions() — ring index updates on the producer side (a burst
//                      counts 1); pushed/transactions = burst occupancy;
//   * push_stalls()/pop_stalls() — blocking EPISODES: one per continuous
//     period a producer/consumer waited, regardless of retries. The
//     non-blocking API cannot detect episodes itself; kernels report them
//     via note_push_stall()/note_pop_stall() exactly once per blocked
//     period.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"
#include "dataflow/ring_core.h"
#include "fault/fault.h"

namespace qnn {

class Stream {
 public:
  Stream(std::size_t capacity, int bits, std::string name)
      : core_(capacity),
        bits_(bits),
        name_(std::move(name)),
        buf_(capacity) {
    QNN_CHECK(capacity >= 1, "stream capacity must be positive");
    QNN_CHECK(bits >= 1 && bits <= 32, "stream width out of range");
  }

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Attach a fault-injection site (nullptr = none). Consulted on the
  /// producer side only; the engine arms it per run via FaultInjector.
  void set_fault(StreamFaultSite* site) { fault_ = site; }

  // ---- readiness seam (ready-queue executor) ----------------------------
  //
  // Forwarded to RingCore (see ReadyHook in ring_core.h for the wake
  // contract). Bound by the executor before workers start and cleared
  // after they join, so the binding needs no synchronization of its own.

  /// The task to wake when values are pushed into (or the stream is closed
  /// toward) this stream's consumer side.
  void bind_consumer(ReadyHook* hook, int task) {
    core_.bind_consumer(hook, task);
  }

  /// The task to wake when values are popped out of this stream (space for
  /// its producer side).
  void bind_producer(ReadyHook* hook, int task) {
    core_.bind_producer(hook, task);
  }

  // ---- burst API (single producer / single consumer) ---------------------

  /// Move as much of `vs` as currently fits into the ring; returns the
  /// number of values transferred (possibly 0). One index release per
  /// call. Must only be called by the single producer.
  std::size_t try_push_burst(std::span<const std::int32_t> vs) {
    if (vs.empty()) return 0;
    const RingWindow w = core_.push_window(vs.size());
    const std::size_t n = w.count;
    if (n == 0) return 0;
    const std::size_t first = core_.slot(w.start);
    const std::size_t run = std::min(n, buf_.size() - first);
    if (fault_ != nullptr && fault_->armed) {
      // Injection path: an armed stall makes the ring report "full"; an
      // armed bit flip corrupts the targeted value as it enters the ring.
      if (fault_->blocked()) return 0;
      for (std::size_t i = 0; i < run; ++i) {
        buf_[first + i] = fault_->filter(vs[i]);
      }
      for (std::size_t i = run; i < n; ++i) {
        buf_[i - run] = fault_->filter(vs[i]);
      }
    } else {
      std::memcpy(&buf_[first], vs.data(), run * sizeof(std::int32_t));
      std::memcpy(buf_.data(), vs.data() + run,
                  (n - run) * sizeof(std::int32_t));
    }
    pushed_ += n;
    ++transactions_;
    core_.commit_push(w, n);
    return n;
  }

  /// Move up to `out.size()` available values out of the ring; returns the
  /// number transferred (possibly 0 — distinguish starvation from end of
  /// stream with drained()). Must only be called by the single consumer.
  std::size_t try_pop_burst(std::span<std::int32_t> out) {
    std::int32_t* dst = out.data();
    return try_pop_with(out.size(), [&dst](std::span<const std::int32_t> seg) {
      std::memcpy(dst, seg.data(), seg.size() * sizeof(std::int32_t));
      dst += seg.size();
    });
  }

  /// try_pop_burst() without the copy out: `visit` is called with the
  /// popped values in FIFO order as at most two contiguous ring segments
  /// (two only when the burst wraps), and the slots are released after it
  /// returns — so a kernel transforms the values straight into its own
  /// output stage. Returns the number popped (0: nothing was visited).
  template <class Visit>
  std::size_t try_pop_with(std::size_t want, Visit&& visit) {
    if (want == 0) return 0;
    const RingWindow w = core_.pop_window(want);
    const std::size_t n = w.count;
    if (n == 0) return 0;
    const std::size_t first = core_.slot(w.start);
    const std::size_t run = std::min(n, buf_.size() - first);
    const std::span<const std::int32_t> ring(buf_);
    visit(ring.subspan(first, run));
    if (run < n) visit(ring.first(n - run));
    core_.commit_pop(w, n);
    return n;
  }

  /// Closed and fully drained: no value will ever arrive again. Consumer
  /// view; pair with a try_pop_burst() that returned 0.
  [[nodiscard]] bool drained() const { return core_.drained(); }

  /// Kernels report one blocked episode per continuous wait.
  void note_push_stall() { ++push_stalls_; }
  void note_pop_stall() { ++pop_stalls_; }

  /// Producer signals end of data; pending values remain poppable. The
  /// consumer is woken so it can observe drained() without another push.
  void close() { core_.close(); }

  /// Reset to the freshly constructed state. Only valid while no producer
  /// or consumer threads are active (the engine calls this between runs).
  /// Values left in flight by an aborted run are discarded — the ring is
  /// drained and re-armed, so a failed run() never poisons the next one.
  void reset() {
    core_.reset();
    pushed_ = 0;
    transactions_ = 0;
    push_stalls_ = 0;
    pop_stalls_ = 0;
  }

  [[nodiscard]] bool closed() const { return core_.closed(); }
  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] std::size_t capacity() const { return core_.capacity(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Total values pushed over the stream's lifetime (producer thread view).
  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }
  /// Producer-side ring transfers; pushed()/transactions() is the mean
  /// burst occupancy of this FIFO (producer thread view).
  [[nodiscard]] std::uint64_t transactions() const { return transactions_; }
  /// Blocking episodes on the producer side (FIFO full when push arrived).
  /// Counted once per blocked episode, not per retry; producer view.
  [[nodiscard]] std::uint64_t push_stalls() const { return push_stalls_; }
  /// Blocking episodes on the consumer side (FIFO empty when pop arrived).
  /// Counted once per blocked episode, not per retry; consumer view.
  [[nodiscard]] std::uint64_t pop_stalls() const { return pop_stalls_; }

 private:
  RingCore<RealSync> core_;
  const int bits_;
  const std::string name_;
  std::vector<std::int32_t> buf_;
  StreamFaultSite* fault_ = nullptr;
  std::uint64_t pushed_ = 0;
  std::uint64_t transactions_ = 0;
  std::uint64_t push_stalls_ = 0;
  std::uint64_t pop_stalls_ = 0;
};

}  // namespace qnn
