// Bounded single-producer / single-consumer stream with burst transfers.
//
// Models the on-chip FIFOs that connect DFE kernels: "data are transferred
// using configurable routing resources, buffered on-chip memory, and
// flip-flops" (§II-B). Like the paper's streams, which move 2-bit codes at
// 2 bit/pixel and buffer only the skip path's 16-bit sums (§III-B5), a
// ring stores each value at its declared width: one storage element per
// stream, chosen once at construction by
//
//   bits <= 7  -> int8,   bits <= 15 -> int16,   otherwise int32,
//
// which holds every value in [-2^bits, 2^bits) exactly — unsigned
// `bits`-bit codes and signed sums whose `bits` include the sign alike
// (the D1xx width proofs bound every value the plan puts on a ring).
// Kernels keep an int32 API: try_push_burst() narrows and try_pop_burst()
// sign-extends through the dispatched VecOps conversions, and
// try_pop_with() hands a generic visitor the ring's own element type.
// Debug and sanitizer builds check that every pushed value survives the
// narrowing.
//
// The hardware moves one value per clock; the software analog used to do
// the same — one atomic acquire/release pair per int32 — which made the
// hot path atomic ping-pong instead of XNOR-popcount work. Transfers are
// therefore *burst*-oriented: try_push_burst()/try_pop_burst() move a
// run of ring positions with a single index update per burst (the
// widened, compute-rate-folded transport of FINN-style dataflow engines).
// The ring is allocated at exactly its capacity, so a burst that wraps is
// two contiguous conversions, never a per-value index mask. A burst of one
// is still legal, so capacity models the FIFO depth precisely and
// `pushed()` still counts values.
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
#include <variant>
#include <vector>

#include "core/error.h"
#include "core/simd/vec_ops.h"
#include "dataflow/ring_core.h"
#include "fault/fault.h"

namespace qnn {

class Stream {
 public:
  Stream(std::size_t capacity, int bits, std::string name)
      : core_(capacity),
        bits_(bits),
        name_(std::move(name)),
        ops_(simd::vec_ops()),
        buf_(make_ring(capacity, bits)) {
    QNN_CHECK(capacity >= 1, "stream capacity must be positive");
    QNN_CHECK(bits >= 1 && bits <= 32, "stream width out of range");
  }

  /// Bytes of the storage element a `bits`-wide stream keeps each value
  /// in: 1 for bits <= 7, 2 for bits <= 15, else 4.
  [[nodiscard]] static constexpr std::size_t element_bytes_for(int bits) {
    return bits <= 7 ? 1 : bits <= 15 ? 2 : 4;
  }

  /// Debug and sanitizer builds throw Error from try_push_burst() for a
  /// value the ring's element cannot hold (a stream declared narrower
  /// than what it carries); other builds trust the width proofs.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  static constexpr bool kChecksNarrowing = true;
#else
  static constexpr bool kChecksNarrowing = false;
#endif

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
    // An armed stall makes the ring report "full".
    if (fault_ != nullptr && fault_->armed && fault_->blocked()) return 0;
    std::visit(
        [&](auto& ring) { store(ring, core_.slot(w.start), vs.first(n)); },
        buf_);
    pushed_ += n;
    ++transactions_;
    core_.commit_push(w, n);
    return n;
  }

  /// Move up to `out.size()` available values out of the ring, sign-
  /// extended to int32; returns the number transferred (possibly 0 —
  /// distinguish starvation from end of stream with drained()). Must only
  /// be called by the single consumer.
  std::size_t try_pop_burst(std::span<std::int32_t> out) {
    std::int32_t* dst = out.data();
    return try_pop_with(out.size(), [this, &dst](auto seg) {
      widen(seg, dst);
      dst += seg.size();
    });
  }

  /// try_pop_burst() without the copy out: `visit` is called with the
  /// popped values in FIFO order as at most two contiguous ring segments
  /// (two only when the burst wraps), and the slots are released after it
  /// returns — so a kernel transforms the values straight into its own
  /// output stage. The visitor must be generic: it is handed spans of the
  /// ring's own element type (std::span<const std::int8_t/int16_t/int32_t>).
  /// Returns the number popped (0: nothing was visited).
  template <class Visit>
  std::size_t try_pop_with(std::size_t want, Visit&& visit) {
    if (want == 0) return 0;
    const RingWindow w = core_.pop_window(want);
    const std::size_t n = w.count;
    if (n == 0) return 0;
    const std::size_t first = core_.slot(w.start);
    std::visit(
        [&](const auto& buf) {
          const std::span ring(buf);
          const std::size_t run = std::min(n, ring.size() - first);
          visit(ring.subspan(first, run));
          if (run < n) visit(ring.first(n - run));
        },
        buf_);
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
  /// Bytes per ring slot (element_bytes_for(bits())).
  [[nodiscard]] std::size_t element_bytes() const {
    return std::visit(
        [](const auto& ring) { return sizeof(ring.front()); }, buf_);
  }
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
  using Ring = std::variant<std::vector<std::int8_t>,
                            std::vector<std::int16_t>,
                            std::vector<std::int32_t>>;

  static Ring make_ring(std::size_t capacity, int bits) {
    switch (element_bytes_for(bits)) {
      case 1:
        return std::vector<std::int8_t>(capacity);
      case 2:
        return std::vector<std::int16_t>(capacity);
      default:
        return std::vector<std::int32_t>(capacity);
    }
  }

  // The conversions between the kernels' int32 values and a ring element.
  void narrow(std::span<const std::int32_t> src, std::int8_t* dst) const {
    ops_.narrow_i8(src.data(), src.size(), dst);
  }
  void narrow(std::span<const std::int32_t> src, std::int16_t* dst) const {
    ops_.narrow_i16(src.data(), src.size(), dst);
  }
  static void narrow(std::span<const std::int32_t> src, std::int32_t* dst) {
    std::memcpy(dst, src.data(), src.size_bytes());
  }
  void widen(std::span<const std::int8_t> src, std::int32_t* dst) const {
    ops_.widen_i8(src.data(), src.size(), dst);
  }
  void widen(std::span<const std::int16_t> src, std::int32_t* dst) const {
    ops_.widen_i16(src.data(), src.size(), dst);
  }
  static void widen(std::span<const std::int32_t> src, std::int32_t* dst) {
    std::memcpy(dst, src.data(), src.size_bytes());
  }

  /// Write `vs` into `ring` from slot `first` on, wrapping at most once.
  template <class T>
  void store(std::vector<T>& ring, std::size_t first,
             std::span<const std::int32_t> vs) {
    if constexpr (kChecksNarrowing && sizeof(T) < sizeof(std::int32_t)) {
      for (const std::int32_t v : vs) {
        QNN_CHECK(static_cast<T>(v) == v,
                  "stream " + name_ + " (" + std::to_string(bits_) +
                      " bits) cannot hold the value " + std::to_string(v));
      }
    }
    if (fault_ != nullptr && fault_->armed) {
      // An armed bit flip corrupts the targeted value as it enters the
      // ring, inside the element's width so that the consumer sees it.
      constexpr int kWidth = 8 * sizeof(T);
      for (std::size_t i = 0; i < vs.size(); ++i) {
        ring[(first + i) % ring.size()] =
            static_cast<T>(fault_->filter(vs[i], kWidth));
      }
      return;
    }
    const std::size_t run = std::min(vs.size(), ring.size() - first);
    narrow(vs.first(run), ring.data() + first);
    narrow(vs.subspan(run), ring.data());
  }

  RingCore<RealSync> core_;
  const int bits_;
  const std::string name_;
  const simd::VecOps& ops_;  // resolved once, at construction
  Ring buf_;
  StreamFaultSite* fault_ = nullptr;
  std::uint64_t pushed_ = 0;
  std::uint64_t transactions_ = 0;
  std::uint64_t push_stalls_ = 0;
  std::uint64_t pop_stalls_ = 0;
};

}  // namespace qnn
