// The host scheduler for a set of resumable kernel tasks.
//
// The engine builds its kernels once; the Executor runs them. It is an
// event-driven ready-queue scheduler: every Stream wakes its blocked
// neighbour through the ReadyHook seam (stream.h) when a ring transaction
// lands, so a kernel is queued only while it has something to do — the
// DFE firing rule (data available, room to write; §II-B) on host threads.
// Workers pull from per-worker deques (LIFO for cache warmth) and steal
// from peers when their own runs dry; idle workers park on a condition
// variable instead of sweeping, so a deep chain where only a few kernels
// are runnable costs no O(tasks) scan per step and no spinning. The home
// deque of each task is the block partition of the topologically ordered
// task list, which places producer/consumer pairs on the same worker —
// and, with pinning, the same core.
//
// Workers are spawned once, lazily, and parked between runs, so a
// serving-shaped run() of one image does not pay a thread spawn per run.
// The task state machine lives in ready_protocol.h, which the model
// checker (src/mc) proves on virtual threads.
//
// Failure semantics: the first kernel exception raises the shared abort
// flag, every worker stops stepping, and the exception is rethrown to the
// caller after all workers have quiesced.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dataflow/kernels.h"

namespace qnn {

class ReadyQueueScheduler;  // executor.cpp: per-run scheduler state

class Executor {
 public:
  /// `threads` = 0 means hardware_concurrency. With `pin`, worker w is
  /// bound to core (pin_offset + w) % cores via pthread affinity (Linux;
  /// silently a no-op elsewhere) — replica pools pass staggered offsets so
  /// four engines do not all land on core 0.
  explicit Executor(unsigned threads = 0, bool pin = false,
                    unsigned pin_offset = 0)
      : threads_(threads), pin_(pin), pin_offset_(pin_offset) {}
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Drive every task to completion (StepResult::kDone). Sets `abort` and
  /// rethrows the first task exception once all workers have stopped;
  /// throws Error("dataflow run aborted") if `abort` was raised externally
  /// (StreamEngine::cancel) with no task exception.
  void run(std::span<Kernel* const> tasks, std::atomic<bool>& abort);

 private:
  void spawn(std::size_t wid);
  void pool_worker(std::size_t wid);

  unsigned threads_;
  bool pin_;
  unsigned pin_offset_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  ReadyQueueScheduler* sched_ = nullptr;  // guarded by mu_, like the rest
  std::size_t run_workers_ = 0;
  std::size_t active_ = 0;
  std::uint64_t gen_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> pool_;  // workers use every member above
};

}  // namespace qnn
