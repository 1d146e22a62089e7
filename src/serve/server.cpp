#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "nn/reference.h"
#include "plan/cache.h"
#include "verify/graph_check.h"
#include "verify/plan_check.h"

namespace qnn {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Why the watchdog cancelled a run (0 = it did not).
constexpr int kCancelNone = 0;
constexpr int kCancelBudget = 1;    // run exceeded run_budget_us
constexpr int kCancelDeadline = 2;  // every live deadline passed mid-run

constexpr std::int64_t kNoDeadline = std::numeric_limits<std::int64_t>::max();

}  // namespace

const char* to_string(ServerStatus status) {
  switch (status) {
    case ServerStatus::kOk:
      return "ok";
    case ServerStatus::kOverloaded:
      return "overloaded";
    case ServerStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case ServerStatus::kShutdown:
      return "shutdown";
    case ServerStatus::kError:
      return "error";
  }
  return "unknown";
}

std::int64_t retry_backoff_delay_us(const ServerConfig& config, int attempt,
                                    Rng& rng) {
  // Saturate instead of shifting past the ceiling: an unbounded
  // max_retries must never overflow the shift or the clock.
  const int shift = std::clamp(attempt - 1, 0, 62);
  const std::int64_t base =
      config.retry_backoff_us > (kMaxRetryBackoffUs >> shift)
          ? kMaxRetryBackoffUs
          : config.retry_backoff_us << shift;
  if (!config.retry_jitter || base <= 0) return base;
  // Uniform in [base/2, 3*base/2]: full-width jitter around the
  // exponential schedule, so a batch failed together retries spread out.
  return base / 2 + static_cast<std::int64_t>(rng.next_below(
                        static_cast<std::uint64_t>(base) + 1));
}

struct DfeServer::Impl {
  struct Request {
    IntTensor image;
    std::promise<InferenceResult> promise;
    Clock::time_point enqueue{};
    Clock::time_point dequeue{};
    Clock::time_point deadline{};
    /// Retry backoff gate: not dispatched before this (epoch = no gate).
    Clock::time_point not_before{};
    bool has_deadline = false;
    int attempt = 0;           // retries consumed so far
    int exclude_replica = -1;  // replica that failed this request last
    double queue_wait_us = 0.0;
    double batch_form_us = 0.0;
  };

  /// One mirrored request for the shadow thread: the image plus the
  /// serving replica's logits to compare against. Internal only — shadow
  /// results are never returned to a client.
  struct ShadowJob {
    IntTensor image;
    IntTensor primary;
    int primary_replica = -1;
  };

  /// One modeled board: the session plus its healing state. Health fields
  /// are guarded by `mu`; the in_run/run_*/cancel_reason block is the
  /// lock-free worker<->watchdog protocol (the watchdog must observe a
  /// run without taking the worker off CPU).
  struct Replica {
    Replica(DfeSession s, SessionConfig cfg)
        : session(std::move(s)),
          session_config(std::move(cfg)),
          kind(session.kind()) {}
    DfeSession session;
    /// The exact config this replica was compiled with — a restart
    /// recompiles the same kind of session with the same options.
    SessionConfig session_config;
    std::string kind;

    // Guarded by Impl::mu.
    ReplicaHealth health = ReplicaHealth::kHealthy;
    int consecutive_failures = 0;
    int clean_probes = 0;
    int failed_probes = 0;  // consecutive; restart_after triggers on it
    /// Shadow-comparison mismatches pinned on this replica; reset on
    /// readmission (ServerConfig::shadow_mismatch_after).
    int shadow_mismatches = 0;
    Clock::time_point next_probe{};

    // Worker publishes (release), watchdog observes (acquire).
    std::atomic<bool> in_run{false};
    std::atomic<std::int64_t> run_start_ns{0};
    std::atomic<std::int64_t> run_deadline_ns{kNoDeadline};
    std::atomic<int> cancel_reason{kCancelNone};
  };

  ServerConfig config;
  std::vector<std::unique_ptr<Replica>> replicas;
  Shape input_shape{};
  ServerMetrics metrics;
  const Clock::time_point epoch = Clock::now();
  /// Kept for restarts (a recompile needs the network, not just the old
  /// session) and for the shadow reference, which reads them in place.
  NetworkSpec spec;
  Pipeline pipeline;
  NetworkParams params;
  /// The golden model shadow jobs are checked against; set iff
  /// shadow_fraction > 0.
  std::optional<ReferenceExecutor> shadow_ref;

  std::mutex mu;
  std::condition_variable cv;        // work arrival / queue changes
  std::condition_variable maint_cv;  // watchdog period, probe schedule
  std::condition_variable shadow_cv; // mirror queue arrival
  std::deque<Request> queue;
  std::deque<ShadowJob> shadow_queue;  // guarded by mu
  double shadow_accum = 0.0;           // fractional mirror accumulator
  Rng retry_rng{1};                    // retry jitter; guarded by mu
  bool accepting = true;
  bool stopping = false;
  /// Set once every worker has joined: the watchdog retires and the
  /// shadow thread exits after draining its queue.
  bool workers_done = false;
  bool brownout_active = false;
  int quarantined_count = 0;   // replicas out of rotation (incl. probation)
  int global_fail_streak = 0;  // consecutive failed runs across replicas

  std::mutex stop_mu;  // serializes stop(); taken outside `mu`
  bool joined = false;
  std::vector<std::thread> workers;
  std::thread watchdog_thread;
  std::thread shadow_thread;

  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
  }
  [[nodiscard]] std::int64_t now_ns() const { return to_ns(Clock::now()); }

  // ---- brownout (mu held) ------------------------------------------------

  void update_brownout() {
    const bool want = quarantined_count > 0 ||
                      global_fail_streak >= kBrownoutFailStreak;
    if (want != brownout_active) {
      brownout_active = want;
      metrics.set_brownout(want);
      metrics.log_event(want ? "brownout entered" : "brownout cleared");
    }
  }

  [[nodiscard]] int effective_max_batch() const {
    return brownout_active ? std::max(1, config.max_batch / 2)
                           : config.max_batch;
  }
  [[nodiscard]] std::int64_t effective_batch_timeout_us() const {
    return brownout_active ? config.batch_timeout_us / 4
                           : config.batch_timeout_us;
  }

  // ---- watchdog ----------------------------------------------------------

  /// Publish a traffic run to the watchdog. The run deadline is the max
  /// over the batch's deadlines, armed only when EVERY live request has
  /// one (then its passing proves all of them overran).
  void arm_watchdog(Replica& rep, const std::vector<Request>& live) {
    std::int64_t deadline = kNoDeadline;
    bool all = !live.empty();
    std::int64_t latest = 0;
    for (const Request& r : live) {
      if (!r.has_deadline) {
        all = false;
        break;
      }
      latest = std::max(latest, to_ns(r.deadline));
    }
    if (all) deadline = latest;
    rep.cancel_reason.store(kCancelNone, std::memory_order_relaxed);
    rep.run_start_ns.store(now_ns(), std::memory_order_relaxed);
    rep.run_deadline_ns.store(deadline, std::memory_order_relaxed);
    rep.in_run.store(true, std::memory_order_release);
  }

  /// Probe runs always get a deadline so a hung quarantined replica can
  /// never wedge its worker (or stop()).
  void arm_watchdog_probe(Replica& rep) {
    const std::int64_t budget_us =
        config.run_budget_us > 0 ? config.run_budget_us : 1'000'000;
    rep.cancel_reason.store(kCancelNone, std::memory_order_relaxed);
    rep.run_start_ns.store(now_ns(), std::memory_order_relaxed);
    rep.run_deadline_ns.store(now_ns() + budget_us * 1000,
                              std::memory_order_relaxed);
    rep.in_run.store(true, std::memory_order_release);
  }

  /// Returns why the watchdog cancelled this run (kCancelNone if it
  /// didn't) and clears the slot for the next run.
  int disarm_watchdog(Replica& rep) {
    rep.in_run.store(false, std::memory_order_release);
    return rep.cancel_reason.exchange(kCancelNone, std::memory_order_acq_rel);
  }

  void watchdog_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!workers_done) {
      maint_cv.wait_for(
          lock, std::chrono::microseconds(config.watchdog_period_us));
      if (workers_done) break;
      const std::int64_t now = now_ns();
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        Replica& rep = *replicas[i];
        if (!rep.in_run.load(std::memory_order_acquire)) continue;
        const std::int64_t start =
            rep.run_start_ns.load(std::memory_order_relaxed);
        const std::int64_t deadline =
            rep.run_deadline_ns.load(std::memory_order_relaxed);
        int reason = kCancelNone;
        if (config.run_budget_us > 0 &&
            now - start > config.run_budget_us * 1000) {
          reason = kCancelBudget;
        } else if (now > deadline) {
          reason = kCancelDeadline;
        }
        if (reason == kCancelNone) continue;
        int expected = kCancelNone;
        if (rep.cancel_reason.compare_exchange_strong(expected, reason)) {
          // Races with run completion are benign: a cancel landing after
          // the run finished aborts the replica's NEXT run, which the
          // retry path then heals (the engine re-arms its abort flag at
          // every run start, so the window is one run at most).
          rep.session.cancel();
          metrics.on_watchdog_cancel(reason == kCancelDeadline);
          metrics.on_replica_cancel(static_cast<int>(i));
          metrics.log_event(
              std::string("watchdog cancel (") +
              (reason == kCancelDeadline ? "deadline" : "budget") +
              ") replica " + std::to_string(i));
        }
      }
    }
  }

  // ---- request lifecycle -------------------------------------------------

  void fulfill(Request& req, ServerStatus status, Clock::time_point now,
               std::string error = {}, int replica = -1) {
    InferenceResult res;
    res.status = status;
    res.queue_wait_us = req.queue_wait_us;
    res.batch_form_us = req.batch_form_us;
    res.total_us = elapsed_us(req.enqueue, now);
    res.error = std::move(error);
    res.retries = req.attempt;
    res.replica = replica;
    req.promise.set_value(std::move(res));
  }

  /// "replica 2 [engine]" — event-log label with the session kind.
  [[nodiscard]] std::string rep_label(int idx) const {
    const Replica& rep = *replicas[static_cast<std::size_t>(idx)];
    return "replica " + std::to_string(idx) + " [" + rep.kind + "]";
  }

  /// Any replica other than `idx` still in traffic rotation? Gates retry
  /// exclusion: a request is only skipped by the replica that failed it
  /// when some OTHER replica could take it. (mu held.)
  [[nodiscard]] bool other_live(int idx) const {
    for (std::size_t j = 0; j < replicas.size(); ++j) {
      if (static_cast<int>(j) == idx) continue;
      const ReplicaHealth h = replicas[j]->health;
      if (h == ReplicaHealth::kHealthy || h == ReplicaHealth::kDegraded) {
        return true;
      }
    }
    return false;
  }

  /// Brownout shedding: expire every over-deadline entry in the queue up
  /// front, so degraded capacity is spent on work that can still make it.
  /// (mu held.)
  void shed_expired(Clock::time_point now) {
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->has_deadline && now > it->deadline) {
        metrics.on_reject_deadline();
        metrics.on_brownout_shed();
        fulfill(*it, ServerStatus::kDeadlineExceeded, now);
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Collect up to `limit` dispatchable requests for `replica_idx`,
  /// expiring passed deadlines in place. Skips backoff-gated entries and
  /// entries excluded from this replica (while another live replica could
  /// take them) — except during drain, when every entry is fair game.
  /// (mu held.)
  void take_ready(std::vector<Request>& batch, int replica_idx, int limit) {
    const Clock::time_point now = Clock::now();
    if (brownout_active) shed_expired(now);
    const bool honor_gates = !stopping;
    for (auto it = queue.begin();
         it != queue.end() && static_cast<int>(batch.size()) < limit;) {
      if (it->has_deadline && now > it->deadline) {
        metrics.on_reject_deadline();
        fulfill(*it, ServerStatus::kDeadlineExceeded, now);
        it = queue.erase(it);
        continue;
      }
      if (honor_gates && it->not_before > now) {
        ++it;
        continue;
      }
      if (honor_gates && it->exclude_replica == replica_idx &&
          other_live(replica_idx)) {
        ++it;
        continue;
      }
      Request req = std::move(*it);
      it = queue.erase(it);
      req.dequeue = now;
      req.queue_wait_us = elapsed_us(req.enqueue, now);
      metrics.queue_wait().record(req.queue_wait_us);
      batch.push_back(std::move(req));
    }
    metrics.set_queue_depth(queue.size());
  }

  /// The queue holds only gated work for this replica: sleep until the
  /// earliest backoff expires (or a state change notifies). For
  /// exclusion-only gates, pass the baton so a worker that CAN take the
  /// work gets woken even if the original notify landed on us. (mu held
  /// via lock.)
  void wait_for_gate(std::unique_lock<std::mutex>& lock) {
    Clock::time_point earliest = Clock::time_point::max();
    bool excluded_only = false;
    const Clock::time_point now = Clock::now();
    for (const Request& r : queue) {
      if (r.not_before > now) {
        earliest = std::min(earliest, r.not_before);
      } else {
        excluded_only = true;
      }
    }
    if (excluded_only) cv.notify_one();
    if (earliest == Clock::time_point::max()) {
      cv.wait(lock);
    } else {
      cv.wait_until(lock, earliest);
    }
  }

  // ---- health state machine (mu taken inside) ----------------------------

  void note_success(int idx) {
    const std::lock_guard<std::mutex> lock(mu);
    Replica& rep = *replicas[static_cast<std::size_t>(idx)];
    rep.consecutive_failures = 0;
    global_fail_streak = 0;
    metrics.on_replica_run(idx, true);
    if (rep.health == ReplicaHealth::kDegraded) {
      rep.health = ReplicaHealth::kHealthy;
      metrics.set_replica_health(idx, ReplicaHealth::kHealthy);
      metrics.log_event(rep_label(idx) + " healthy again");
    }
    update_brownout();
  }

  void note_failure(int idx, int reason, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu);
    Replica& rep = *replicas[static_cast<std::size_t>(idx)];
    ++rep.consecutive_failures;
    ++global_fail_streak;
    metrics.on_replica_run(idx, false);
    metrics.log_event(
        rep_label(idx) + " run failed" +
        (reason == kCancelBudget
             ? " (budget cancel)"
             : reason == kCancelDeadline ? " (deadline cancel)" : "") +
        ": " + what);
    if (rep.health == ReplicaHealth::kHealthy) {
      rep.health = ReplicaHealth::kDegraded;
      metrics.set_replica_health(idx, ReplicaHealth::kDegraded);
    }
    if (rep.health != ReplicaHealth::kQuarantined &&
        rep.consecutive_failures >= config.quarantine_after) {
      quarantine_locked(idx, rep, rep_label(idx) + " quarantined");
    }
    update_brownout();
    cv.notify_all();
    maint_cv.notify_all();
  }

  /// The quarantine transition itself (mu held, replica not already
  /// quarantined): shared by the failure-streak path above and the
  /// shadow-mismatch escalation below. The replica heals through the
  /// normal probe/probation/readmit machinery either way.
  void quarantine_locked(int idx, Replica& rep, const std::string& event) {
    rep.health = ReplicaHealth::kQuarantined;
    rep.clean_probes = 0;
    rep.next_probe =
        Clock::now() + std::chrono::microseconds(config.probe_period_us);
    ++quarantined_count;
    metrics.on_quarantine();
    metrics.set_replica_health(idx, ReplicaHealth::kQuarantined);
    metrics.log_event(event);
  }

  /// A shadow comparison pinned a bit-exactness mismatch on `primary`.
  /// After shadow_mismatch_after of those, the replica is pulled from
  /// rotation through the same quarantine/probe/readmit path a failure
  /// streak uses — a replica that computes WRONG answers is worse than one
  /// that crashes, but only the reference comparison can see it.
  void escalate_shadow_mismatch(int primary) {
    if (config.shadow_mismatch_after <= 0) return;
    if (primary < 0 ||
        primary >= static_cast<int>(replicas.size())) {
      return;
    }
    bool escalated = false;
    {
      const std::lock_guard<std::mutex> lock(mu);
      Replica& rep = *replicas[static_cast<std::size_t>(primary)];
      ++rep.shadow_mismatches;
      if (rep.health != ReplicaHealth::kQuarantined &&
          rep.shadow_mismatches >= config.shadow_mismatch_after) {
        quarantine_locked(primary, rep,
                          std::string(kShadowQuarantine) + ": " +
                              rep_label(primary) + " after " +
                              std::to_string(rep.shadow_mismatches) +
                              " shadow mismatches");
        update_brownout();
        escalated = true;
      }
    }
    if (escalated) {
      cv.notify_all();
      maint_cv.notify_all();
    }
  }

  /// One synthetic inference on a quarantined replica (worker thread, mu
  /// NOT held on entry). Clean probes walk quarantined -> probation ->
  /// healthy; any failure resets to quarantined.
  void run_probe(int idx) {
    Replica& rep = *replicas[static_cast<std::size_t>(idx)];
    metrics.on_replica_probe(idx);
    bool ok = false;
    arm_watchdog_probe(rep);
    try {
      std::vector<IntTensor> probe;
      probe.emplace_back(input_shape);
      (void)rep.session.infer_batch(probe);
      ok = true;
    } catch (const std::exception&) {
      ok = false;
    }
    disarm_watchdog(rep);

    bool want_restart = false;
    {
      const std::lock_guard<std::mutex> lock(mu);
      metrics.on_probe(ok);
      if (!ok) {
        rep.clean_probes = 0;
        ++rep.failed_probes;
        if (rep.health != ReplicaHealth::kQuarantined) {
          rep.health = ReplicaHealth::kQuarantined;
          metrics.set_replica_health(idx, ReplicaHealth::kQuarantined);
        }
        metrics.log_event(rep_label(idx) + " probe failed");
        rep.next_probe =
            Clock::now() + std::chrono::microseconds(config.probe_period_us);
        want_restart = config.restart_after > 0 &&
                       rep.failed_probes >= config.restart_after;
      } else {
        rep.failed_probes = 0;
        ++rep.clean_probes;
        if (rep.health == ReplicaHealth::kQuarantined) {
          rep.health = ReplicaHealth::kProbation;
          metrics.set_replica_health(idx, ReplicaHealth::kProbation);
          metrics.log_event(rep_label(idx) + " on probation");
        }
        if (rep.clean_probes >= config.probation_probes) {
          rep.health = ReplicaHealth::kHealthy;
          rep.consecutive_failures = 0;
          rep.shadow_mismatches = 0;  // readmission wipes the slate
          --quarantined_count;
          metrics.on_readmit();
          metrics.set_replica_health(idx, ReplicaHealth::kHealthy);
          metrics.log_event(rep_label(idx) + " readmitted");
          update_brownout();
          cv.notify_all();
        } else {
          rep.next_probe =
              Clock::now() + std::chrono::microseconds(config.probe_period_us);
          maint_cv.notify_all();
        }
      }
    }
    if (want_restart) restart_replica(idx);
  }

  /// Watchdog-triggered self-heal of last resort: after `restart_after`
  /// consecutive failed probes, recompile the replica from its stored config
  /// (the software analog of reflashing a wedged board) and swap the
  /// fresh session in. Runs on the replica's own worker thread with mu
  /// NOT held — only this thread runs the session, and the swap happens
  /// under mu so the watchdog (which cancels sessions under mu) can never
  /// observe a dangling one. The replica stays quarantined: the next
  /// probe validates the fresh session before readmission.
  void restart_replica(int idx) {
    Replica& rep = *replicas[static_cast<std::size_t>(idx)];
    metrics.log_event(rep_label(idx) + " restarting (recompile)");
    try {
      DfeSession fresh =
          DfeSession::compile(spec, params, rep.session_config);
      DfeSession old = [&] {
        const std::lock_guard<std::mutex> lock(mu);
        DfeSession prev = std::move(rep.session);
        rep.session = std::move(fresh);
        rep.failed_probes = 0;
        rep.clean_probes = 0;
        rep.consecutive_failures = 0;
        rep.next_probe = Clock::now();  // probe the fresh session now
        return prev;
      }();
      // `old` (and its engine threads) tears down here, outside mu.
      metrics.on_replica_restart(idx);
      metrics.log_event(std::string(kReplicaRestarted) + ": " +
                        rep_label(idx));
      maint_cv.notify_all();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu);
      rep.failed_probes = 0;  // back off a full restart_after window
      metrics.log_event(rep_label(idx) +
                        " restart failed: " + std::string(e.what()));
      rep.next_probe =
          Clock::now() + std::chrono::microseconds(config.probe_period_us);
    }
  }

  /// A request's run failed on replica `idx`: expire it if its deadline is
  /// the reason (or has passed), retry it with backoff on another replica
  /// while attempts remain, else surface kError.
  void handle_failure(Request& req, int idx, int reason,
                      const std::string& what, Clock::time_point now) {
    if (reason == kCancelDeadline || (req.has_deadline && now > req.deadline)) {
      metrics.on_reject_deadline();
      fulfill(req, ServerStatus::kDeadlineExceeded, now, {}, idx);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!stopping && req.attempt < config.max_retries) {
        ++req.attempt;
        req.exclude_replica = idx;
        req.not_before = now + std::chrono::microseconds(retry_backoff_delay_us(
                                   config, req.attempt, retry_rng));
        metrics.on_retry();
        queue.push_front(std::move(req));
        metrics.set_queue_depth(queue.size());
        cv.notify_all();
        return;
      }
    }
    metrics.on_error();
    fulfill(req, ServerStatus::kError, now, what, idx);
  }

  /// Run `live` on replica `idx` under the watchdog and settle every
  /// request. On a batch-wide failure that was NOT a watchdog cancel,
  /// re-run each request alone once (`allow_isolation`): one poisoned
  /// input then fails only itself, and its batch-mates still complete.
  void run_requests(int idx, std::vector<Request>& live,
                    bool allow_isolation) {
    Replica& rep = *replicas[static_cast<std::size_t>(idx)];
    std::vector<IntTensor> images;
    images.reserve(live.size());
    for (Request& req : live) images.push_back(std::move(req.image));
    arm_watchdog(rep, live);
    try {
      StreamEngine::RunStats stats;
      std::vector<IntTensor> outputs = rep.session.infer_batch(images, &stats);
      disarm_watchdog(rep);
      metrics.on_engine_stats(stats.values_streamed,
                              stats.stream_transactions, stats.push_stalls,
                              stats.pop_stalls);
      metrics.on_faults(stats.faults_injected);
      if (stats.links > 0) {
        // Partitioned (LinkedEngine) replica: surface its MaxRing traffic
        // and per-link health, and log the healing transitions.
        metrics.on_link(stats.link_frames, stats.link_retransmits,
                        stats.link_failovers);
        const int n = std::min<int>(stats.links,
                                    static_cast<int>(stats.link_health.size()));
        for (int l = 0; l < n; ++l) {
          metrics.set_link_health(l, stats.link_health[
                                          static_cast<std::size_t>(l)]);
        }
        if (stats.link_failovers > 0) {
          metrics.log_event(std::string(kPlanFailover) + ": replica " +
                            std::to_string(idx) + " recompiled a degraded "
                            "plan after a link death");
        } else if (stats.link_retransmits > 0) {
          metrics.log_event(std::string(kLinkDegraded) + ": replica " +
                            std::to_string(idx) + " recovered " +
                            std::to_string(stats.link_retransmits) +
                            " retransmit(s)");
        }
      }
      note_success(idx);
      const Clock::time_point done = Clock::now();
      for (std::size_t i = 0; i < live.size(); ++i) {
        Request& req = live[i];
        // Mid-run deadline enforcement is watchdog-period granular: a run
        // that finished anyway still settles as kDeadlineExceeded when the
        // request's own deadline has passed.
        if (req.has_deadline && done > req.deadline) {
          metrics.on_reject_deadline();
          fulfill(req, ServerStatus::kDeadlineExceeded, done, {}, idx);
          continue;
        }
        // Mirror a fraction of served traffic to the reference. The image
        // is dead after this loop, so a mirrored job can steal it.
        if (shadow_ref) {
          maybe_mirror(images[i], outputs[i], idx);
        }
        InferenceResult res;
        res.status = ServerStatus::kOk;
        res.logits = std::move(outputs[i]);
        res.queue_wait_us = req.queue_wait_us;
        res.batch_form_us = req.batch_form_us;
        res.total_us = elapsed_us(req.enqueue, done);
        res.retries = req.attempt;
        res.replica = idx;
        metrics.end_to_end().record(res.total_us);
        metrics.on_complete();
        req.promise.set_value(std::move(res));
      }
    } catch (const std::exception& e) {
      const int reason = disarm_watchdog(rep);
      // Give every request its image back so it can be re-run or retried.
      for (std::size_t i = 0; i < live.size(); ++i) {
        live[i].image = std::move(images[i]);
      }
      note_failure(idx, reason, e.what());
      if (allow_isolation && live.size() > 1 && reason == kCancelNone) {
        metrics.on_isolation(live.size());
        metrics.log_event("isolating batch of " +
                          std::to_string(live.size()) + " on replica " +
                          std::to_string(idx));
        for (Request& req : live) {
          std::vector<Request> solo;
          solo.push_back(std::move(req));
          run_requests(idx, solo, false);
        }
        return;
      }
      const Clock::time_point now = Clock::now();
      for (Request& req : live) {
        handle_failure(req, idx, reason, e.what(), now);
      }
    }
  }

  /// Fractional mirroring: every served request adds shadow_fraction to
  /// an accumulator; each time it crosses 1 one job is queued for the
  /// shadow thread (so fraction 0.25 mirrors exactly every 4th request).
  /// The image is MOVED into the job; the primary logits are copied.
  void maybe_mirror(IntTensor& image, const IntTensor& primary, int idx) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      shadow_accum += config.shadow_fraction;
      if (shadow_accum < 1.0) return;
      shadow_accum -= 1.0;
      if (shadow_queue.size() >= kShadowQueueCapacity) {
        metrics.on_shadow_drop();
        return;
      }
      shadow_queue.push_back(ShadowJob{std::move(image), primary, idx});
    }
    shadow_cv.notify_one();
  }

  /// The shadow thread: it never touches the admission queue. It re-runs
  /// mirrored requests on the golden model and compares the result
  /// bit-exactly against the serving replica's logits — a continuous
  /// conformance check of the live replicas. Results are never returned
  /// to clients; mismatches and failures are counted and logged, and
  /// repeated mismatches pinned on one replica quarantine it
  /// (ServerConfig::shadow_mismatch_after). Exits once the workers have
  /// joined and the queue is drained.
  void shadow_loop() {
    for (;;) {
      ShadowJob job;
      {
        std::unique_lock<std::mutex> lock(mu);
        shadow_cv.wait(lock, [&] {
          return workers_done || !shadow_queue.empty();
        });
        if (shadow_queue.empty()) return;
        job = std::move(shadow_queue.front());
        shadow_queue.pop_front();
      }
      try {
        const bool match = shadow_ref->run(job.image) == job.primary;
        metrics.on_shadow(match);
        if (!match) {
          metrics.log_event("shadow MISMATCH vs " +
                            rep_label(job.primary_replica));
          escalate_shadow_mismatch(job.primary_replica);
        }
      } catch (const std::exception& e) {
        metrics.on_shadow(false);
        metrics.log_event("shadow run failed: " + std::string(e.what()));
      }
    }
  }

  /// Time the batch, record formation latency, and run it.
  void dispatch(int idx, std::vector<Request>& batch) {
    const Clock::time_point exec_start = Clock::now();
    std::vector<Request> live;
    live.reserve(batch.size());
    for (Request& req : batch) {
      // Deadlines are re-checked after batch formation: a request admitted
      // in time may still expire while the batch waits to fill.
      if (req.has_deadline && exec_start > req.deadline) {
        metrics.on_reject_deadline();
        fulfill(req, ServerStatus::kDeadlineExceeded, exec_start);
        continue;
      }
      req.batch_form_us = elapsed_us(req.dequeue, exec_start);
      metrics.batch_form().record(req.batch_form_us);
      live.push_back(std::move(req));
    }
    if (live.empty()) return;
    metrics.on_batch(live.size());
    run_requests(idx, live, /*allow_isolation=*/true);
  }

  /// Worker loop: one per replica. A quarantined replica serves probes
  /// instead of traffic (drain overrides: on stop every replica helps).
  /// Otherwise forms a micro-batch (close at the effective max_batch or
  /// the effective batch timeout after it opened) and dispatches it.
  void worker(int idx) {
    Replica& rep = *replicas[static_cast<std::size_t>(idx)];
    std::vector<Request> batch;
    for (;;) {
      batch.clear();
      {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
          if (stopping && queue.empty()) return;
          if (!stopping && (rep.health == ReplicaHealth::kQuarantined ||
                            rep.health == ReplicaHealth::kProbation)) {
            const Clock::time_point when = rep.next_probe;
            if (Clock::now() >= when) {
              lock.unlock();
              run_probe(idx);
              lock.lock();
            } else {
              maint_cv.wait_until(lock, when);
            }
            continue;
          }
          if (queue.empty()) {
            cv.wait(lock, [&] { return stopping || !queue.empty(); });
            continue;
          }
          const Clock::time_point batch_open = Clock::now();
          const int limit = effective_max_batch();
          take_ready(batch, idx, limit);
          if (batch.empty()) {
            // Draining takes every live entry, so an empty batch while
            // stopping means the queue is empty. Otherwise everything
            // queued is backoff-gated or excluded from us.
            if (!stopping) wait_for_gate(lock);
            continue;
          }
          const std::int64_t timeout_us = effective_batch_timeout_us();
          if (timeout_us > 0) {
            const Clock::time_point close_at =
                batch_open + std::chrono::microseconds(timeout_us);
            while (static_cast<int>(batch.size()) < limit) {
              const std::size_t before = batch.size();
              if (!queue.empty()) take_ready(batch, idx, limit);
              if (batch.size() > before) continue;
              if (stopping) break;
              if (cv.wait_until(lock, close_at) == std::cv_status::timeout) {
                break;
              }
            }
          }
          break;  // batch formed
        }
      }
      dispatch(idx, batch);
    }
  }
};

DfeServer::DfeServer(const NetworkSpec& spec, const NetworkParams& params,
                     ServerConfig server_config,
                     SessionConfig session_config)
    : impl_(std::make_unique<Impl>()) {
  QNN_CHECK(server_config.replicas >= 1, "server needs at least one replica");
  QNN_CHECK(server_config.queue_capacity >= 1,
            "admission queue capacity must be positive");
  QNN_CHECK(server_config.max_batch >= 1, "max_batch must be positive");
  QNN_CHECK(server_config.batch_timeout_us >= 0,
            "batch_timeout_us must be non-negative");
  QNN_CHECK(server_config.run_budget_us >= 0,
            "run_budget_us must be non-negative");
  QNN_CHECK(server_config.watchdog_period_us >= 1,
            "watchdog_period_us must be positive");
  QNN_CHECK(server_config.max_retries >= 0,
            "max_retries must be non-negative");
  QNN_CHECK(server_config.retry_backoff_us >= 0,
            "retry_backoff_us must be non-negative");
  QNN_CHECK(server_config.quarantine_after >= 1,
            "quarantine_after must be positive");
  QNN_CHECK(server_config.probation_probes >= 1,
            "probation_probes must be positive");
  QNN_CHECK(server_config.probe_period_us >= 1,
            "probe_period_us must be positive");
  QNN_CHECK(server_config.restart_after >= 0,
            "restart_after must be non-negative");
  QNN_CHECK(server_config.shadow_fraction >= 0.0 &&
                server_config.shadow_fraction <= 1.0,
            "shadow_fraction must be in [0, 1]");
  QNN_CHECK(server_config.shadow_mismatch_after >= 0,
            "shadow_mismatch_after must be non-negative");

  const int total = server_config.replicas;
  impl_->config = server_config;
  impl_->retry_rng = Rng(kRetryJitterSeed);

  const Pipeline pipeline = expand(spec);
  // Cold-start plan resolution: ONE cache lookup for the whole pool (every
  // replica would otherwise re-read the same file). A hit is observable —
  // the kPlanCacheHit event carries the fingerprint, and each replica's
  // metrics row records the plan it runs.
  if (session_config.plan == nullptr) {
    const PlanCache cache(session_config.plan_cache_dir.empty()
                              ? PlanCache::default_dir()
                              : session_config.plan_cache_dir);
    if (cache.enabled()) {
      if (auto cached =
              cache.load(plan_key(pipeline, session_config.slo_us))) {
        // Re-verify before arming the whole pool with it: a cached file
        // that parses but fails the consistency lint (stale hash, corrupt
        // streams, burst/FIFO skew — verify/plan_check.h) is a MISS, loudly
        // logged, never a broken cold start.
        Report lint;
        lint_plan(pipeline, *cached, lint);
        if (lint.ok()) {
          session_config.plan =
              std::make_shared<const CompiledPlan>(*std::move(cached));
          impl_->metrics.log_event(std::string(kPlanCacheHit) + ": " +
                                   session_config.plan->fingerprint());
        } else {
          impl_->metrics.log_event("plan-cache-rejected: " +
                                   cached->fingerprint() + " (" +
                                   lint.summary() + ")");
        }
      }
    }
  }
  if (session_config.plan != nullptr) {
    session_config.plan->apply_engine(session_config.engine);
    session_config.engine.plan = session_config.plan.get();
  }

  if (session_config.engine.verify) {
    // Verify once up front so a malformed network produces one clean
    // static-analysis error instead of N identical compile failures from
    // the replica loop below (each compile re-checks its own placement).
    enforce(verify_graph(pipeline, &params, session_config.engine),
            "DfeServer(" + pipeline.name + ")");
  }
  impl_->spec = spec;
  impl_->pipeline = pipeline;
  impl_->params = params;
  if (server_config.shadow_fraction > 0.0) {
    impl_->shadow_ref.emplace(impl_->pipeline, impl_->params);
  }
  impl_->replicas.reserve(static_cast<std::size_t>(total));
  // Replica pools share one pinning map: each replica's engine gets a core
  // window staggered by its worker count, so with pin_threads set four
  // replicas tile the machine instead of all binding worker 0 to core 0.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned pin_stride =
      session_config.engine.pool_threads != 0
          ? session_config.engine.pool_threads
          : std::max(1u, hw / static_cast<unsigned>(std::max(1, total)));
  for (int i = 0; i < total; ++i) {
    // Each replica gets its own copy of the parameters: sessions share no
    // mutable state, so the workers may run them concurrently. The fault
    // identity lets one FaultPlan target individual replicas.
    SessionConfig replica_config = session_config;
    replica_config.engine.fault_replica = i;
    replica_config.engine.pin_offset =
        session_config.engine.pin_offset +
        static_cast<unsigned>(i) * pin_stride;
    impl_->replicas.push_back(std::make_unique<Impl::Replica>(
        DfeSession::compile(spec, params, replica_config), replica_config));
  }
  if (session_config.engine.pin_threads) {
    // Lint the pool's core tiling (verify/plan_check.h): a stagger bug, an
    // oversized plan-frozen pool_threads or simply more replicas than the
    // machine has cores makes windows collide — correctness is unaffected,
    // so findings are logged, not fatal.
    std::vector<ReplicaPinWindow> windows;
    windows.reserve(impl_->replicas.size());
    for (std::size_t i = 0; i < impl_->replicas.size(); ++i) {
      const Impl::Replica& rep = *impl_->replicas[i];
      windows.push_back(ReplicaPinWindow{
          "replica " + std::to_string(i) + " (" + rep.kind + ")",
          rep.session_config.engine.pin_offset, pin_stride});
    }
    Report pin_report;
    lint_pool_pinning(windows, pin_report);
    for (const Diagnostic& d : pin_report.diagnostics()) {
      if (d.severity != Severity::kInfo) impl_->metrics.log_event(d.str());
    }
  }
  impl_->input_shape = impl_->replicas.front()->session.pipeline().input;
  impl_->metrics.init_replicas(total);
  for (int i = 0; i < total; ++i) {
    const Impl::Replica& rep = *impl_->replicas[static_cast<std::size_t>(i)];
    impl_->metrics.set_replica_kind(i, rep.kind);
    if (rep.session_config.plan != nullptr) {
      impl_->metrics.set_replica_plan(
          i, rep.session_config.plan->fingerprint());
    }
  }
  Impl* im = impl_.get();  // stable even if the DfeServer handle moves
  impl_->watchdog_thread = std::thread([im] { im->watchdog_loop(); });
  impl_->workers.reserve(impl_->replicas.size());
  for (int i = 0; i < total; ++i) {
    impl_->workers.emplace_back([im, i] { im->worker(i); });
  }
  if (impl_->shadow_ref) {
    impl_->shadow_thread = std::thread([im] { im->shadow_loop(); });
  }
}

DfeServer::~DfeServer() { stop(); }

std::future<InferenceResult> DfeServer::submit_async(
    IntTensor image, std::int64_t deadline_us) {
  Impl& im = *impl_;
  QNN_CHECK(image.shape() == im.input_shape,
            "image shape " + image.shape().str() + " != network input " +
                im.input_shape.str());
  Impl::Request req;
  req.image = std::move(image);
  std::future<InferenceResult> fut = req.promise.get_future();
  req.enqueue = Clock::now();
  const std::int64_t dl =
      deadline_us < 0 ? im.config.default_deadline_us : deadline_us;
  req.has_deadline = dl > 0;
  if (req.has_deadline) {
    req.deadline = req.enqueue + std::chrono::microseconds(dl);
  }
  im.metrics.on_submit();
  {
    const std::lock_guard<std::mutex> lock(im.mu);
    if (!im.accepting) {
      im.metrics.on_reject_shutdown();
      im.fulfill(req, ServerStatus::kShutdown, Clock::now());
      return fut;
    }
    if (im.queue.size() >= im.config.queue_capacity) {
      im.metrics.on_reject_overload();
      im.fulfill(req, ServerStatus::kOverloaded, Clock::now());
      return fut;
    }
    im.queue.push_back(std::move(req));
    im.metrics.set_queue_depth(im.queue.size());
  }
  // Wake every worker: idle ones race for the entry, and one holding a
  // partial micro-batch open may add it.
  im.cv.notify_all();
  return fut;
}

InferenceResult DfeServer::submit(const IntTensor& image,
                                  std::int64_t deadline_us) {
  return submit_async(image, deadline_us).get();
}

void DfeServer::stop() {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> stop_lock(im.stop_mu);
  if (im.joined) return;
  {
    const std::lock_guard<std::mutex> lock(im.mu);
    im.accepting = false;
    im.stopping = true;
  }
  im.cv.notify_all();
  im.maint_cv.notify_all();
  // Workers drain first (the watchdog must stay alive to cancel hung
  // drain runs, and drained requests may still be mirrored), then the
  // watchdog retires and the shadow thread finishes the mirror queue.
  for (std::thread& t : im.workers) t.join();
  im.workers.clear();
  {
    const std::lock_guard<std::mutex> lock(im.mu);
    im.workers_done = true;
  }
  im.maint_cv.notify_all();
  im.shadow_cv.notify_all();
  if (im.watchdog_thread.joinable()) im.watchdog_thread.join();
  if (im.shadow_thread.joinable()) im.shadow_thread.join();
  im.joined = true;
}

int DfeServer::replicas() const {
  return static_cast<int>(impl_->replicas.size());
}

const DfeSession& DfeServer::replica(int i) const {
  QNN_CHECK(i >= 0 && i < replicas(), "replica index out of range");
  return impl_->replicas[static_cast<std::size_t>(i)]->session;
}

ReplicaHealth DfeServer::replica_health(int i) const {
  QNN_CHECK(i >= 0 && i < replicas(), "replica index out of range");
  return impl_->metrics.replica_health(i);
}

const ServerMetrics& DfeServer::metrics() const { return impl_->metrics; }

std::string DfeServer::metrics_report() const {
  return impl_->metrics.report();
}

}  // namespace qnn
