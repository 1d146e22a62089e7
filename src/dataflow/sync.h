// The virtualizable synchronization seam.
//
// Every atomic operation and fence the lock-free
// stream/scheduler protocols perform goes through a *Sync policy* instead
// of naming std::atomic directly. Production code instantiates the
// protocol templates (ring_core.h, ready_protocol.h) with RealSync, which
// compiles to exactly the std::atomic calls that were previously written
// inline — a pure type alias, zero cost. The model checker (src/mc)
// instantiates the same templates with mc::ModelSync, whose atomics route
// every load, store, RMW and fence through a controlled scheduler with
// release/acquire vector-clock semantics, so the *same protocol code* that
// runs in production is the code whose interleavings are exhaustively
// explored.
//
// A Sync policy provides:
//   template <class T> class Atomic
//     T    load(std::memory_order) const
//     void store(T, std::memory_order)
//     bool compare_exchange_strong(T&, T, std::memory_order)
//     bool compare_exchange_weak(T&, T, std::memory_order)
//     T    fetch_add(T, std::memory_order)       (integral T)
//   static void fence_seq_cst()                  std::atomic_thread_fence
//
// Protocol templates must perform ALL cross-thread communication through
// the policy: a plain load smuggled past the seam is invisible to the
// checker and unverifiable.
#pragma once

#include <atomic>

namespace qnn {

/// The production policy: std::atomic verbatim.
struct RealSync {
  template <class T>
  class Atomic {
   public:
    Atomic() = default;
    explicit Atomic(T v) : value_(v) {}

    [[nodiscard]] T load(std::memory_order order) const {
      return value_.load(order);
    }
    void store(T v, std::memory_order order) { value_.store(v, order); }
    bool compare_exchange_strong(T& expected, T desired,
                                 std::memory_order order) {
      return value_.compare_exchange_strong(expected, desired, order);
    }
    bool compare_exchange_weak(T& expected, T desired,
                               std::memory_order order) {
      return value_.compare_exchange_weak(expected, desired, order);
    }
    T fetch_add(T delta, std::memory_order order) {
      return value_.fetch_add(delta, order);
    }

   private:
    std::atomic<T> value_;
  };

  static void fence_seq_cst() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
};

}  // namespace qnn
