// RingCore: the lock-free SPSC ring *index protocol*, templated on the
// synchronization seam (sync.h).
//
// This is the part of Stream that the model checker must be able to run
// on virtual threads: the head/tail/closed publication protocol and the
// wake-after-transaction contract with the ready-queue scheduler. The
// payload copy stays with the caller (Stream interleaves fault-injection
// filtering into it; the model checker writes sequence numbers) — RingCore
// only hands out a window of ring positions and publishes the index
// update, in exactly this order:
//
//   producer:  push_window() -> copy payload -> commit_push() -> wake
//   consumer:  pop_window()  -> copy payload -> commit_pop()  -> wake
//
// The release store inside commit_* is what makes the payload copy visible
// to the other side's acquire load in the next *_window() call; the wake
// fires strictly after the store so a woken task's re-step can always see
// the transaction that woke it (see ReadyHook below and the lost-wakeup
// discussion in ready_protocol.h).
//
// head and tail are free-running position counters (they only grow; the
// unsigned wrap at 2^64 is harmless because only their difference is ever
// used), so a ring holds exactly `capacity` slots — no spare slot to tell
// full from empty, no power-of-two rounding — and position p lives in
// slot p mod capacity. A window of n positions from `start` therefore
// covers at most two contiguous slot runs: [slot(start), capacity) and
// [0, rest).
#pragma once

#include <algorithm>
#include <cstddef>

#include "dataflow/sync.h"

namespace qnn {

/// Executor-side readiness sink (the seam the ready-queue scheduler plugs
/// into a Stream): wake(task) tells the executor that the stream activity
/// which just happened may have unblocked `task`, so it must be (re)queued
/// unless it is already queued or running.
///
/// The protocol is eventcount-shaped and deliberately *level*-based rather
/// than strictly edge-triggered: a wake fires after EVERY successful ring
/// transaction (push -> wake consumer, pop -> wake producer) plus close()
/// (-> wake consumer), not only on empty->nonempty / full->nonfull
/// transitions. A strict transition test on the producer side would read a
/// stale tail_ and could conclude "not empty" exactly while the consumer
/// is going idle — the classic lost wakeup. Firing per transaction keeps
/// the check race-free at the cost of one fence + one atomic load per
/// *burst*, which adaptive per-edge sizing amortizes over the whole row.
/// Implementations must tolerate spurious wakes and wakes for tasks that
/// are already queued, running, or done.
class ReadyHook {
 public:
  virtual ~ReadyHook() = default;

  /// May be called from any worker thread, concurrently with itself.
  virtual void wake(int task) = 0;
};

/// Index window handed out by push_window()/pop_window(): `start` is the
/// free-running ring position of the first value (its slot is
/// RingCore::slot(start)), `count` how many consecutive positions the
/// caller may fill / read. count == 0 means full / empty — nothing was
/// reserved and commit must not be called.
struct RingWindow {
  std::size_t start = 0;
  std::size_t count = 0;
};

template <class Sync = RealSync>
class RingCore {
 public:
  explicit RingCore(std::size_t capacity) : capacity_(capacity) {}

  RingCore(const RingCore&) = delete;
  RingCore& operator=(const RingCore&) = delete;

  /// Slots the ring holds — exactly the payload buffer the caller
  /// allocates.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Payload slot of ring position `pos`.
  [[nodiscard]] std::size_t slot(std::size_t pos) const {
    return pos % capacity_;
  }

  // ---- readiness seam ----------------------------------------------------
  //
  // Bound by the executor before workers start and cleared after they
  // join, so the fields need no synchronization of their own. A null hook
  // costs one branch per ring transaction.

  /// The task to wake when values are pushed into (or the ring is closed
  /// toward) the consumer side.
  void bind_consumer(ReadyHook* hook, int task) {
    consumer_hook_ = hook;
    consumer_task_ = task;
  }

  /// The task to wake when values are popped out (space for the producer).
  void bind_producer(ReadyHook* hook, int task) {
    producer_hook_ = hook;
    producer_task_ = task;
  }

  // ---- producer side (single producer) -----------------------------------

  /// Reserve up to `want` free slots. count == 0 when the ring is full.
  [[nodiscard]] RingWindow push_window(std::size_t want) const {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t used = head - tail_.load(std::memory_order_acquire);
    return {head, std::min(capacity_ - used, want)};
  }

  /// Publish `n` slots written from `window.start` and wake the consumer.
  void commit_push(const RingWindow& window, std::size_t n) {
    head_.store(window.start + n, std::memory_order_release);
    if (consumer_hook_ != nullptr) consumer_hook_->wake(consumer_task_);
  }

  // ---- consumer side (single consumer) -----------------------------------

  /// Reserve up to `want` readable slots. count == 0 when the ring is
  /// empty (distinguish starvation from end of stream with drained()).
  [[nodiscard]] RingWindow pop_window(std::size_t want) const {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t avail = head_.load(std::memory_order_acquire) - tail;
    return {tail, std::min(avail, want)};
  }

  /// Release `n` slots read from `window.start` and wake the producer.
  void commit_pop(const RingWindow& window, std::size_t n) {
    tail_.store(window.start + n, std::memory_order_release);
    if (producer_hook_ != nullptr) producer_hook_->wake(producer_task_);
  }

  // ---- lifecycle ---------------------------------------------------------

  /// Producer signals end of data; pending values remain poppable. The
  /// consumer is woken so it can observe drained() without another push.
  void close() {
    closed_.store(true, std::memory_order_release);
    if (consumer_hook_ != nullptr) consumer_hook_->wake(consumer_task_);
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Closed and fully drained: no value will ever arrive again. Consumer
  /// view; pair with a pop_window() whose count was 0.
  [[nodiscard]] bool drained() const {
    // Order matters: closed must be read before emptiness, otherwise a
    // close() racing between the two loads could report a live stream as
    // drained while its last values are still in the ring.
    const bool closed = closed_.load(std::memory_order_acquire);
    const bool empty = tail_.load(std::memory_order_relaxed) ==
                       head_.load(std::memory_order_acquire);
    return closed && empty;
  }

  /// Reset to the freshly constructed state. Only valid while no producer
  /// or consumer threads are active (the engine calls this between runs).
  void reset() {
    head_.store(0, std::memory_order_seq_cst);
    tail_.store(0, std::memory_order_seq_cst);
    closed_.store(false, std::memory_order_seq_cst);
  }

 private:
  const std::size_t capacity_;
  alignas(64) typename Sync::template Atomic<std::size_t> head_{0};
  alignas(64) typename Sync::template Atomic<std::size_t> tail_{0};
  typename Sync::template Atomic<bool> closed_{false};
  ReadyHook* consumer_hook_ = nullptr;
  ReadyHook* producer_hook_ = nullptr;
  int consumer_task_ = -1;
  int producer_task_ = -1;
};

}  // namespace qnn
