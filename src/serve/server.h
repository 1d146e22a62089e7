// Multi-replica inference server: the datacenter deployment of §IV-B4.
//
// The paper's streaming architecture reaches its throughput only while the
// kernel pipeline stays full (§III-B computation overlap); a single
// blocking DfeSession::infer() call per image drains the pipe between
// requests and leaves a farm of boards idle. DfeServer is the host-side
// serving layer that keeps the farm saturated under concurrent load:
//
//   admission queue  ->  micro-batcher  ->  replica pool  ->  metrics
//
//  * Admission control: a bounded queue with per-request deadlines.
//    When the queue is full a request is rejected immediately with
//    ServerStatus::kOverloaded — explicit backpressure instead of
//    unbounded queuing; a request whose deadline passes while it waits
//    completes with kDeadlineExceeded without touching a replica.
//  * Dynamic micro-batching: each worker coalesces queued requests into
//    one infer_batch() call; a batch closes at `max_batch` requests or
//    `batch_timeout_us` after it opened, whichever comes first, so the
//    pipeline stays full under load and latency stays bounded when idle.
//  * Replica pool: `replicas` independently compiled DfeSessions of one
//    SessionConfig — one engine each, or one linked chain each when
//    SessionConfig::linked is set — a farm of identical DFE boards, one
//    worker thread per replica.
//  * Shadow mirroring: a configurable fraction of completed requests is
//    re-run on the golden model (ReferenceExecutor) by one background
//    thread and compared bit-exactly; mirrored results are counted, never
//    returned.
//  * Metrics: lock-cheap counters/histograms (serve/metrics.h) exposed
//    via metrics() / metrics_report().
//
// The server also *self-heals* around replica faults (DESIGN.md §7):
//
//  * Watchdog: a dedicated thread cancels runs that exceed `run_budget_us`
//    (hung replica) or outlive every live deadline in the batch (mid-run
//    deadline enforcement); cancelled work is retried or expired, never
//    lost.
//  * Retry with backoff: a failed request is requeued up to `max_retries`
//    times with exponential backoff, excluded from the replica that just
//    failed it whenever another live replica exists.
//  * Batch isolation: when a batch fails without a watchdog cancel, each
//    request is re-run alone so one poisoned input cannot take its
//    batch-mates down with it.
//  * Quarantine: `quarantine_after` consecutive failed runs park a replica;
//    it then serves synthetic probes and is readmitted after
//    `probation_probes` consecutive clean ones.
//  * Restart: `restart_after` consecutive FAILED probes recompile the
//    replica from its stored config (the software analog of reflashing a
//    wedged board); the fresh session then re-enters the probe loop so
//    readmission still requires clean probes.
//  * Brownout: while any replica is quarantined (or kBrownoutFailStreak
//    consecutive runs have failed), the effective max_batch/batch_timeout
//    shrink and already-expired queue entries are shed first — graceful
//    degradation instead of collapse. It is always armed.
//
// submit_async() enqueues and returns a std::future; submit() is the
// synchronous convenience wrapper. stop() (also run by the destructor)
// stops admitting, drains every queued request, and joins the workers —
// no in-flight future is ever abandoned.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "host/session.h"
#include "serve/metrics.h"

namespace qnn {

enum class ServerStatus {
  kOk,                // inference ran; logits are valid
  kOverloaded,        // admission queue full at submit time
  kDeadlineExceeded,  // deadline passed while queued / forming a batch
  kShutdown,          // submitted after stop()
  kError,             // inference raised; see InferenceResult::error
};

[[nodiscard]] const char* to_string(ServerStatus status);

struct ServerConfig {
  /// Number of DfeSession replicas (modeled DFE boards), each compiled
  /// from the one SessionConfig; one worker each.
  int replicas = 1;
  /// Admission queue bound; submissions beyond it are rejected.
  std::size_t queue_capacity = 256;
  /// Micro-batch closes at this many requests...
  int max_batch = 8;
  /// ...or this long after it opened, whichever comes first. 0 = greedy
  /// (dispatch whatever is queued right now, never wait).
  std::int64_t batch_timeout_us = 2000;
  /// Deadline applied when submit()/submit_async() pass deadline_us < 0.
  /// 0 = no deadline.
  std::int64_t default_deadline_us = 0;

  // ---- self-healing ------------------------------------------------------
  /// Watchdog cancels any single engine run exceeding this budget (a hung
  /// replica cannot hold its worker forever). 0 = no budget.
  std::int64_t run_budget_us = 0;
  /// Watchdog scan period. Also bounds how stale a mid-run deadline
  /// overrun can go unnoticed.
  std::int64_t watchdog_period_us = 500;
  /// Times a failed (non-expired) request is requeued before kError.
  int max_retries = 2;
  /// Base backoff before a retried request may dispatch again; doubles
  /// per attempt (attempt k waits retry_backoff_us << (k-1)), saturating
  /// at kMaxRetryBackoffUs (one hour) so no attempt count overflows the
  /// clock.
  std::int64_t retry_backoff_us = 200;
  /// Jitter each retry delay uniformly within +-50% of its exponential
  /// base, drawn from a generator seeded with kRetryJitterSeed — a burst
  /// of requests failed by one fault then spreads out instead of
  /// re-dispatching (and possibly re-failing) in lockstep. false = the
  /// exact base delay every time.
  bool retry_jitter = true;
  /// Consecutive failed runs that quarantine a replica.
  int quarantine_after = 3;
  /// Consecutive clean probes that readmit a quarantined replica.
  int probation_probes = 2;
  /// Delay between probe runs of a quarantined replica.
  std::int64_t probe_period_us = 2000;
  /// Consecutive failed probes of a quarantined replica that trigger a
  /// restart: the replica's stored config recompiles a fresh session which
  /// then re-enters the probe loop. 0 = never restart.
  int restart_after = 0;

  // ---- shadow mirroring ---------------------------------------------------
  /// Fraction of successfully served requests mirrored to the golden
  /// model (ReferenceExecutor) for comparison (0 = no shadowing; > 0 starts
  /// one shadow thread). Mirrored results are compared bit-exactly and
  /// counted (ServerMetrics), never returned.
  double shadow_fraction = 0.0;
  /// Quarantine a replica after this many bit-exactness mismatches are
  /// pinned on it by shadow comparison (it then heals through the normal
  /// probe/readmit path, which also resets the count). 0 = count
  /// mismatches but never escalate.
  int shadow_mismatch_after = 0;
};

/// Ceiling of the exponential retry backoff base (one hour): far inside
/// Clock::time_point's range even after +50% jitter.
inline constexpr std::int64_t kMaxRetryBackoffUs = 3'600'000'000;

/// Seed of the server's retry-jitter generator (ServerConfig::retry_jitter).
inline constexpr std::uint64_t kRetryJitterSeed = 0x7e7125a5;

/// Brownout-mode degradation (halved max_batch, quartered batch timeout,
/// shed-expired-first) runs while any replica is quarantined or after
/// this many consecutive failed runs across the pool.
inline constexpr int kBrownoutFailStreak = 6;

/// Bound on queued shadow jobs; overflow is dropped (and counted).
inline constexpr std::size_t kShadowQueueCapacity = 64;

/// Backoff gate before retry `attempt` (1-based) may re-dispatch:
/// exponential base retry_backoff_us << (attempt-1), saturated at
/// kMaxRetryBackoffUs, jittered uniformly in [base/2, 3*base/2] from `rng`
/// when config.retry_jitter is set. Exposed as a free function so tests
/// can assert the spread deterministically.
[[nodiscard]] std::int64_t retry_backoff_delay_us(const ServerConfig& config,
                                                  int attempt, Rng& rng);

struct InferenceResult {
  ServerStatus status = ServerStatus::kError;
  IntTensor logits;  // valid iff status == kOk
  double queue_wait_us = 0.0;  // admission -> picked by a worker
  double batch_form_us = 0.0;  // picked -> batch dispatched to the engine
  double total_us = 0.0;       // admission -> future fulfilled
  std::string error;           // set iff status == kError
  int retries = 0;             // times this request was requeued
  int replica = -1;            // replica that produced the final outcome

  [[nodiscard]] bool ok() const { return status == ServerStatus::kOk; }
};

class DfeServer {
 public:
  /// Compiles `replicas` copies of the network from `session_config`
  /// (each replica gets its own copy of the parameters) and starts the
  /// workers. Throws Error on an invalid config, including a
  /// SessionConfig::linked cut the link check refuses.
  DfeServer(const NetworkSpec& spec, const NetworkParams& params,
            ServerConfig server_config = {},
            SessionConfig session_config = {});
  ~DfeServer();

  DfeServer(const DfeServer&) = delete;
  DfeServer& operator=(const DfeServer&) = delete;

  /// Enqueue one image. `deadline_us` < 0 uses the config default; 0 means
  /// no deadline. The future is always fulfilled — with kOverloaded /
  /// kShutdown immediately, kDeadlineExceeded if the deadline passes in
  /// the queue, kError if inference throws, kOk otherwise.
  [[nodiscard]] std::future<InferenceResult> submit_async(
      IntTensor image, std::int64_t deadline_us = -1);

  /// Synchronous wrapper: submit_async + wait.
  [[nodiscard]] InferenceResult submit(const IntTensor& image,
                                       std::int64_t deadline_us = -1);

  /// Stop admitting, drain every queued request through the replicas, and
  /// join the workers. Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] int replicas() const;
  [[nodiscard]] const DfeSession& replica(int i) const;
  /// Current health of replica i in the healing state machine.
  [[nodiscard]] ReplicaHealth replica_health(int i) const;
  [[nodiscard]] const ServerMetrics& metrics() const;
  [[nodiscard]] std::string metrics_report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qnn
