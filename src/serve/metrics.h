// Lock-cheap serving metrics: counters, a queue-depth gauge, and fixed
// power-of-two-bucket latency histograms.
//
// Every hot-path update is a single relaxed atomic increment — no locks,
// no allocation — so instrumenting the admission queue and the batching
// workers costs nanoseconds against inference runs that take milliseconds.
// Readers (metrics_report(), tests, the load generator) take a snapshot of
// the relaxed counters; values observed mid-run are approximate by design
// and exact once the server has been stopped.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qnn {

/// Health state of one replica in the self-healing state machine (see
/// DESIGN.md §7): healthy -> degraded on a failed run -> quarantined after
/// a failure streak; a quarantined replica serves synthetic probes and is
/// readmitted (probation -> healthy) after K consecutive clean probes.
enum class ReplicaHealth {
  kHealthy,
  kDegraded,
  kQuarantined,
  kProbation,
};

[[nodiscard]] const char* to_string(ReplicaHealth health);

/// Event-log tag of a watchdog-triggered recompile of a replica.
inline constexpr const char* kReplicaRestarted = "replica-restarted";
/// Event-log tag of a cold start that loaded a persisted CompiledPlan from
/// the plan cache (plan/cache.h) instead of re-deriving the default.
inline constexpr const char* kPlanCacheHit = "plan-cache-hit";
/// Event-log tag of a replica quarantined because shadow
/// comparison pinned repeated bit-exactness mismatches on it
/// (ServerConfig::shadow_mismatch_after).
inline constexpr const char* kShadowQuarantine = "shadow-quarantine";
/// Event-log tag of a degraded MaxRing link observed on a replica's run
/// (retransmissions, or a link reporting health < 1).
inline constexpr const char* kLinkDegraded = "link-degraded";
/// Event-log tag of a LinkedEngine recompiling a degraded plan after a
/// permanent link death (dataflow/linked_engine.h failover ladder).
inline constexpr const char* kPlanFailover = "plan-failover";

/// Point-in-time health row of one replica.
struct ReplicaStatus {
  ReplicaHealth health = ReplicaHealth::kHealthy;
  std::uint64_t runs_ok = 0;
  std::uint64_t runs_failed = 0;
  std::uint64_t cancels = 0;   // watchdog-initiated session cancels
  std::uint64_t probes = 0;    // probe runs while quarantined/probation
  std::uint64_t restarts = 0;  // recompiles after failed probes
  std::string kind;            // DfeSession::kind() it runs on
  std::string plan;            // fingerprint of the CompiledPlan it runs
                               // ("" = default, engine-derived)
};

/// Fixed-bucket latency histogram over microseconds. Bucket 0 holds
/// sub-microsecond samples; bucket i (i >= 1) holds [2^(i-1), 2^i) us, so
/// 40 buckets cover ~6 days. Percentile estimates return the upper bound
/// of the bucket containing the requested rank (conservative: the true
/// percentile is never above the reported value's bucket ceiling).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  void record(double us) {
    counts_[static_cast<std::size_t>(bucket_of(us))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(static_cast<std::uint64_t>(us < 0.0 ? 0.0 : us),
                      std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] double mean_us() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(
                        sum_us_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }

  /// Latency (us) at percentile p in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;

  /// "p50/p95/p99 = a/b/c us (n samples, mean m us)" one-liner.
  [[nodiscard]] std::string summary() const;

 private:
  static int bucket_of(double us) {
    if (us < 1.0) return 0;
    const auto v = static_cast<std::uint64_t>(us);
    int b = 0;
    for (std::uint64_t x = v; x != 0; x >>= 1) ++b;  // bit width
    return b < kBuckets ? b : kBuckets - 1;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Point-in-time view of a ServerMetrics (all counts relaxed-read).
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  // completed + errored via a batch
  std::uint64_t queue_depth = 0;
  std::uint64_t max_queue_depth = 0;
  // Aggregated StreamEngine::RunStats across every infer_batch call.
  std::uint64_t values_streamed = 0;
  std::uint64_t stream_transactions = 0;
  std::uint64_t push_stalls = 0;
  std::uint64_t pop_stalls = 0;
  // Self-healing counters (fault masking; see server.h).
  std::uint64_t retries = 0;            // requests requeued after a failure
  std::uint64_t watchdog_budget_cancels = 0;
  std::uint64_t watchdog_deadline_cancels = 0;
  std::uint64_t isolation_reruns = 0;   // requests re-run solo after a
                                        // batch-wide failure
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t brownout_entries = 0;
  std::uint64_t brownout_sheds = 0;     // over-deadline requests shed early
  std::uint64_t faults_injected = 0;    // from EngineOptions::faults plans
  std::uint64_t replica_restarts = 0;   // recompiles (watchdog)
  // Shadow serving (mirrored traffic; see ServerConfig::shadow_fraction).
  std::uint64_t shadow_runs = 0;
  std::uint64_t shadow_mismatches = 0;  // shadow result != primary result
  std::uint64_t shadow_dropped = 0;     // mirror queue full
  // Live MaxRing link traffic (partitioned LinkedEngine replicas only).
  std::uint64_t link_frames = 0;
  std::uint64_t link_retransmits = 0;
  std::uint64_t plan_failovers = 0;  // degraded-plan recompiles
  std::uint64_t events_dropped = 0;  // timeline ring overwrote this many
  int links = 0;  // physical links on the widest replica seen (0 = none)
  std::array<double, 8> link_health{};  // last reported health per link
  bool brownout_active = false;
  std::vector<ReplicaStatus> replicas;

  [[nodiscard]] double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
  /// Mean values moved per FIFO ring transaction across the pipelines —
  /// how well the burst transport amortizes its synchronization (1.0 =
  /// scalar transfers; EngineOptions::burst is the upper bound).
  [[nodiscard]] double mean_burst_occupancy() const {
    return stream_transactions == 0
               ? 0.0
               : static_cast<double>(values_streamed) /
                     static_cast<double>(stream_transactions);
  }
  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_overload + rejected_deadline + rejected_shutdown;
  }
};

/// All serving-side instrumentation for one DfeServer.
class ServerMetrics {
 public:
  // -- hot-path updates (relaxed atomics) ---------------------------------
  void on_submit() { inc(submitted_); }
  void on_reject_overload() { inc(rejected_overload_); }
  void on_reject_deadline() { inc(rejected_deadline_); }
  void on_reject_shutdown() { inc(rejected_shutdown_); }
  void on_error() { inc(errors_); }
  void on_complete() { inc(completed_); }
  void on_batch(std::uint64_t size) {
    inc(batches_);
    batched_requests_.fetch_add(size, std::memory_order_relaxed);
  }
  void on_engine_stats(std::uint64_t values, std::uint64_t transactions,
                       std::uint64_t pushes, std::uint64_t pops) {
    values_streamed_.fetch_add(values, std::memory_order_relaxed);
    stream_transactions_.fetch_add(transactions, std::memory_order_relaxed);
    push_stalls_.fetch_add(pushes, std::memory_order_relaxed);
    pop_stalls_.fetch_add(pops, std::memory_order_relaxed);
  }
  void set_queue_depth(std::uint64_t depth) {
    queue_depth_.store(depth, std::memory_order_relaxed);
    std::uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }

  // -- self-healing updates ------------------------------------------------
  void on_retry() { inc(retries_); }
  void on_watchdog_cancel(bool deadline) {
    inc(deadline ? watchdog_deadline_cancels_ : watchdog_budget_cancels_);
  }
  void on_isolation(std::uint64_t requests) {
    isolation_reruns_.fetch_add(requests, std::memory_order_relaxed);
  }
  void on_quarantine() { inc(quarantines_); }
  void on_probe(bool ok) {
    inc(probes_);
    if (!ok) inc(probe_failures_);
  }
  void on_readmit() { inc(readmissions_); }
  void set_brownout(bool active) {
    if (active && !brownout_active_.exchange(true,
                                             std::memory_order_relaxed)) {
      inc(brownout_entries_);
    } else if (!active) {
      brownout_active_.store(false, std::memory_order_relaxed);
    }
  }
  void on_brownout_shed() { inc(brownout_sheds_); }
  void on_faults(std::uint64_t n) {
    faults_injected_.fetch_add(n, std::memory_order_relaxed);
  }
  void on_shadow(bool match) {
    inc(shadow_runs_);
    if (!match) inc(shadow_mismatches_);
  }
  void on_shadow_drop() { inc(shadow_dropped_); }
  /// Aggregate RunStats link counters from one infer_batch on a
  /// partitioned (LinkedEngine) replica.
  void on_link(std::uint64_t frames, std::uint64_t retransmits,
               std::uint64_t failovers) {
    link_frames_.fetch_add(frames, std::memory_order_relaxed);
    link_retransmits_.fetch_add(retransmits, std::memory_order_relaxed);
    plan_failovers_.fetch_add(failovers, std::memory_order_relaxed);
  }
  /// Publish the last observed health of one physical link (0.0 = dead,
  /// 1.0 = clean). Links beyond kMaxLinks are counted but not tracked.
  void set_link_health(int link, double health) {
    if (link < 0) return;
    int seen = links_seen_.load(std::memory_order_relaxed);
    while (link + 1 > seen && !links_seen_.compare_exchange_weak(
                                  seen, link + 1, std::memory_order_relaxed)) {
    }
    if (link < kMaxLinks) {
      link_health_[static_cast<std::size_t>(link)].store(
          health, std::memory_order_relaxed);
    }
  }

  // -- per-replica health table --------------------------------------------

  /// Size the replica table; call once before the workers start.
  void init_replicas(int n);
  /// Tag a replica with the session kind it runs on. Call before the
  /// workers start (the strings are read without synchronization after).
  void set_replica_kind(int replica, std::string kind);
  /// Record the CompiledPlan fingerprint a replica runs. Call before the
  /// workers start (same publication rule as set_replica_kind).
  void set_replica_plan(int replica, std::string plan);
  void set_replica_health(int replica, ReplicaHealth health);
  [[nodiscard]] ReplicaHealth replica_health(int replica) const;
  void on_replica_run(int replica, bool ok);
  void on_replica_cancel(int replica);
  void on_replica_probe(int replica);
  void on_replica_restart(int replica);

  // -- healing event log ---------------------------------------------------

  /// Append a timestamped line to the bounded healing timeline (the chaos
  /// example prints it). Cheap but not free: only healing transitions log.
  /// The timeline is a fixed-capacity ring that keeps the NEWEST
  /// kMaxEvents lines — a long soak overwrites its oldest entries rather
  /// than going silent, and the overwrite count is surfaced in
  /// MetricsSnapshot::events_dropped.
  void log_event(const std::string& what);
  /// Snapshot of the timeline ("+123.4ms quarantine replica 2", ...),
  /// oldest surviving entry first; a trailing "(... events dropped)" line
  /// reports ring overwrites.
  [[nodiscard]] std::vector<std::string> events() const;

  LatencyHistogram& queue_wait() { return queue_wait_; }
  LatencyHistogram& batch_form() { return batch_form_; }
  LatencyHistogram& end_to_end() { return end_to_end_; }
  [[nodiscard]] const LatencyHistogram& queue_wait() const {
    return queue_wait_;
  }
  [[nodiscard]] const LatencyHistogram& batch_form() const {
    return batch_form_;
  }
  [[nodiscard]] const LatencyHistogram& end_to_end() const {
    return end_to_end_;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Human-readable report: outcome counters, queue gauge, batch sizes,
  /// p50/p95/p99 of queue-wait / batch-formation / end-to-end latency,
  /// and aggregate pipeline traffic.
  [[nodiscard]] std::string report() const;

 private:
  static void inc(std::atomic<std::uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  /// Per-replica atomics (unique_ptr-held: atomics are not movable).
  struct ReplicaMetrics {
    std::atomic<int> health{0};  // static_cast<int>(ReplicaHealth)
    std::atomic<std::uint64_t> runs_ok{0};
    std::atomic<std::uint64_t> runs_failed{0};
    std::atomic<std::uint64_t> cancels{0};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> restarts{0};
    std::string kind;  // written before workers start, then read-only
    std::string plan;  // CompiledPlan fingerprint ("" = default)
  };

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_deadline_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> values_streamed_{0};
  std::atomic<std::uint64_t> stream_transactions_{0};
  std::atomic<std::uint64_t> push_stalls_{0};
  std::atomic<std::uint64_t> pop_stalls_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> watchdog_budget_cancels_{0};
  std::atomic<std::uint64_t> watchdog_deadline_cancels_{0};
  std::atomic<std::uint64_t> isolation_reruns_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> probe_failures_{0};
  std::atomic<std::uint64_t> readmissions_{0};
  std::atomic<std::uint64_t> brownout_entries_{0};
  std::atomic<std::uint64_t> brownout_sheds_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> replica_restarts_{0};
  std::atomic<std::uint64_t> shadow_runs_{0};
  std::atomic<std::uint64_t> shadow_mismatches_{0};
  std::atomic<std::uint64_t> shadow_dropped_{0};
  static constexpr int kMaxLinks = 8;  // the modeled MPC-X daisy chain
  std::atomic<std::uint64_t> link_frames_{0};
  std::atomic<std::uint64_t> link_retransmits_{0};
  std::atomic<std::uint64_t> plan_failovers_{0};
  std::atomic<int> links_seen_{0};
  std::array<std::atomic<double>, kMaxLinks> link_health_{};
  std::atomic<bool> brownout_active_{false};
  std::vector<std::unique_ptr<ReplicaMetrics>> replicas_;
  LatencyHistogram queue_wait_;
  LatencyHistogram batch_form_;
  LatencyHistogram end_to_end_;

  static constexpr std::size_t kMaxEvents = 256;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex events_mu_;
  std::vector<std::string> events_;   // ring once size reaches kMaxEvents
  std::size_t events_head_ = 0;       // oldest surviving entry
  std::uint64_t events_dropped_ = 0;  // ring overwrites
};

}  // namespace qnn
