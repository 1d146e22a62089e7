#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/error.h"
#include "io/table.h"

namespace qnn {

const char* to_string(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kDegraded:
      return "degraded";
    case ReplicaHealth::kQuarantined:
      return "quarantined";
    case ReplicaHealth::kProbation:
      return "probation";
  }
  return "unknown";
}

double LatencyHistogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the requested percentile, 1-based; ceil so p=0 maps to rank 1.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cumulative += counts_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (cumulative >= target) {
      // Upper bound of bucket b: 1us for bucket 0, else 2^b us.
      return b == 0 ? 1.0 : std::ldexp(1.0, b);
    }
  }
  return std::ldexp(1.0, kBuckets - 1);
}

std::string LatencyHistogram::summary() const {
  std::ostringstream os;
  os << "p50/p95/p99 = " << Table::num(percentile(50), 0) << "/"
     << Table::num(percentile(95), 0) << "/" << Table::num(percentile(99), 0)
     << " us (" << count() << " samples, mean " << Table::num(mean_us(), 1)
     << " us)";
  return os.str();
}

void ServerMetrics::init_replicas(int n) {
  QNN_CHECK(replicas_.empty(), "init_replicas must run once");
  replicas_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    replicas_.push_back(std::make_unique<ReplicaMetrics>());
  }
}

void ServerMetrics::set_replica_backend(int replica, std::string backend) {
  replicas_.at(static_cast<std::size_t>(replica))->backend =
      std::move(backend);
}

void ServerMetrics::set_replica_plan(int replica, std::string plan) {
  replicas_.at(static_cast<std::size_t>(replica))->plan = std::move(plan);
}

void ServerMetrics::set_replica_health(int replica, ReplicaHealth health) {
  replicas_.at(static_cast<std::size_t>(replica))
      ->health.store(static_cast<int>(health), std::memory_order_relaxed);
}

ReplicaHealth ServerMetrics::replica_health(int replica) const {
  return static_cast<ReplicaHealth>(
      replicas_.at(static_cast<std::size_t>(replica))
          ->health.load(std::memory_order_relaxed));
}

void ServerMetrics::on_replica_run(int replica, bool ok) {
  ReplicaMetrics& r = *replicas_.at(static_cast<std::size_t>(replica));
  (ok ? r.runs_ok : r.runs_failed).fetch_add(1, std::memory_order_relaxed);
}

void ServerMetrics::on_replica_cancel(int replica) {
  replicas_.at(static_cast<std::size_t>(replica))
      ->cancels.fetch_add(1, std::memory_order_relaxed);
}

void ServerMetrics::on_replica_probe(int replica) {
  replicas_.at(static_cast<std::size_t>(replica))
      ->probes.fetch_add(1, std::memory_order_relaxed);
}

void ServerMetrics::on_replica_restart(int replica) {
  replica_restarts_.fetch_add(1, std::memory_order_relaxed);
  replicas_.at(static_cast<std::size_t>(replica))
      ->restarts.fetch_add(1, std::memory_order_relaxed);
}

void ServerMetrics::log_event(const std::string& what) {
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - epoch_)
                        .count();
  std::string line = "+";
  line += Table::num(ms, 1);
  line += "ms ";
  line += what;
  const std::lock_guard<std::mutex> lock(events_mu_);
  if (events_.size() < kMaxEvents) {
    events_.push_back(std::move(line));
    return;
  }
  // Ring: overwrite the oldest line so a long soak keeps its most recent
  // healing timeline instead of freezing the first five minutes of it.
  events_[events_head_] = std::move(line);
  events_head_ = (events_head_ + 1) % kMaxEvents;
  ++events_dropped_;
}

std::vector<std::string> ServerMetrics::events() const {
  const std::lock_guard<std::mutex> lock(events_mu_);
  std::vector<std::string> out;
  out.reserve(events_.size() + 1);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(events_head_ + i) % events_.size()]);
  }
  if (events_dropped_ > 0) {
    out.push_back("(+" + std::to_string(events_dropped_) +
                  " older events dropped)");
  }
  return out;
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.values_streamed = values_streamed_.load(std::memory_order_relaxed);
  s.stream_transactions =
      stream_transactions_.load(std::memory_order_relaxed);
  s.push_stalls = push_stalls_.load(std::memory_order_relaxed);
  s.pop_stalls = pop_stalls_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.watchdog_budget_cancels =
      watchdog_budget_cancels_.load(std::memory_order_relaxed);
  s.watchdog_deadline_cancels =
      watchdog_deadline_cancels_.load(std::memory_order_relaxed);
  s.isolation_reruns = isolation_reruns_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  s.readmissions = readmissions_.load(std::memory_order_relaxed);
  s.brownout_entries = brownout_entries_.load(std::memory_order_relaxed);
  s.brownout_sheds = brownout_sheds_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.replica_restarts = replica_restarts_.load(std::memory_order_relaxed);
  s.shadow_runs = shadow_runs_.load(std::memory_order_relaxed);
  s.shadow_mismatches = shadow_mismatches_.load(std::memory_order_relaxed);
  s.shadow_dropped = shadow_dropped_.load(std::memory_order_relaxed);
  s.link_frames = link_frames_.load(std::memory_order_relaxed);
  s.link_retransmits = link_retransmits_.load(std::memory_order_relaxed);
  s.plan_failovers = plan_failovers_.load(std::memory_order_relaxed);
  s.links = std::min(links_seen_.load(std::memory_order_relaxed), kMaxLinks);
  for (int i = 0; i < s.links; ++i) {
    s.link_health[static_cast<std::size_t>(i)] =
        link_health_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(events_mu_);
    s.events_dropped = events_dropped_;
  }
  s.brownout_active = brownout_active_.load(std::memory_order_relaxed);
  s.replicas.reserve(replicas_.size());
  for (const auto& r : replicas_) {
    ReplicaStatus rs;
    rs.health = static_cast<ReplicaHealth>(
        r->health.load(std::memory_order_relaxed));
    rs.runs_ok = r->runs_ok.load(std::memory_order_relaxed);
    rs.runs_failed = r->runs_failed.load(std::memory_order_relaxed);
    rs.cancels = r->cancels.load(std::memory_order_relaxed);
    rs.probes = r->probes.load(std::memory_order_relaxed);
    rs.restarts = r->restarts.load(std::memory_order_relaxed);
    rs.backend = r->backend;
    rs.plan = r->plan;
    s.replicas.push_back(rs);
  }
  return s;
}

std::string ServerMetrics::report() const {
  const MetricsSnapshot s = snapshot();
  std::ostringstream os;
  os << "serving metrics\n";
  os << "  requests: " << s.submitted << " submitted, " << s.completed
     << " completed, " << s.errors << " errored\n";
  os << "  rejected: " << s.rejected_overload << " overloaded, "
     << s.rejected_deadline << " deadline-exceeded, " << s.rejected_shutdown
     << " shutdown\n";
  os << "  queue:    depth " << s.queue_depth << " (max " << s.max_queue_depth
     << ")\n";
  os << "  batches:  " << s.batches << " formed, mean size "
     << Table::num(s.mean_batch_size(), 2) << "\n";
  os << "  latency queue-wait " << queue_wait_.summary() << "\n";
  os << "  latency batch-form " << batch_form_.summary() << "\n";
  os << "  latency end-to-end " << end_to_end_.summary() << "\n";
  os << "  pipeline: " << s.values_streamed << " values streamed, "
     << s.push_stalls << " push stalls, " << s.pop_stalls << " pop stalls\n";
  os << "  bursts:   " << s.stream_transactions << " transactions, mean "
     << Table::num(s.mean_burst_occupancy(), 1) << " values/transaction\n";
  os << "  healing:  " << s.retries << " retries, " << s.isolation_reruns
     << " isolation re-runs, "
     << (s.watchdog_budget_cancels + s.watchdog_deadline_cancels)
     << " watchdog cancels (" << s.watchdog_budget_cancels << " budget, "
     << s.watchdog_deadline_cancels << " deadline)\n";
  os << "  health:   " << s.quarantines << " quarantines, " << s.probes
     << " probes (" << s.probe_failures << " failed), " << s.readmissions
     << " readmissions\n";
  os << "  brownout: " << (s.brownout_active ? "ACTIVE" : "inactive") << ", "
     << s.brownout_entries << " entries, " << s.brownout_sheds
     << " requests shed\n";
  os << "  faults:   " << s.faults_injected << " injected\n";
  os << "  restarts: " << s.replica_restarts << " replica recompiles\n";
  if (s.shadow_runs > 0 || s.shadow_dropped > 0) {
    os << "  shadow:   " << s.shadow_runs << " mirrored, "
       << s.shadow_mismatches << " mismatches, " << s.shadow_dropped
       << " dropped\n";
  }
  if (s.links > 0) {
    os << "  links:    " << s.links << " physical, " << s.link_frames
       << " frames, " << s.link_retransmits << " retransmits, "
       << s.plan_failovers << " plan failovers; health";
    for (int i = 0; i < s.links; ++i) {
      os << (i == 0 ? " " : "/")
         << Table::num(s.link_health[static_cast<std::size_t>(i)], 2);
    }
    os << "\n";
  }
  if (s.events_dropped > 0) {
    os << "  timeline: " << s.events_dropped
       << " older events dropped by the ring\n";
  }
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    const ReplicaStatus& r = s.replicas[i];
    os << "  replica " << i;
    if (!r.backend.empty()) {
      os << " [" << r.backend << "]";
    }
    if (!r.plan.empty()) {
      os << " plan=" << r.plan;
    }
    os << ": " << to_string(r.health) << " (" << r.runs_ok << " runs ok, "
       << r.runs_failed << " failed, " << r.cancels << " cancels, "
       << r.probes << " probes";
    if (r.restarts > 0) os << ", " << r.restarts << " restarts";
    os << ")\n";
  }
  return os.str();
}

}  // namespace qnn
