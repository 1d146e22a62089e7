#include "verify/plan_check.h"

#include <algorithm>
#include <thread>

namespace qnn {
namespace {

std::string stream_field(std::size_t i, const PlannedStream& s,
                         const char* field) {
  return "fifos.streams[" + std::to_string(i) + "] ('" + s.name + "')." +
         field;
}

/// Topology identity of a planned stream: which edge of the graph it wires.
/// Capacities/bursts are tuning, this is structure.
struct EdgeId {
  int producer;
  int consumer;
  bool to_skip_port;
  PlannedStream::Role role;

  bool operator==(const EdgeId&) const = default;
};

EdgeId edge_id(const PlannedStream& s) {
  return EdgeId{s.producer, s.consumer, s.to_skip_port, s.role};
}

}  // namespace

void lint_plan(const Pipeline& pipeline, const CompiledPlan& plan,
               Report& report) {
  const int before_errors = report.errors();
  const int before_warnings = report.warnings();

  if (plan.version != kPlanFormatVersion) {
    report.error(diag::kPlanMismatch, -1, "plan",
                 "field 'version': serialized value " +
                     std::to_string(plan.version) + " != expected format " +
                     std::to_string(kPlanFormatVersion) +
                     " (the cache treats this as a miss; an armed plan must "
                     "not smuggle it past that check)");
  }
  if (!plan.matches(pipeline)) {
    report.error(diag::kPlanMismatch, -1, "plan",
                 "field 'key.model_hash': plan " + plan.fingerprint() +
                     " was built for a different pipeline than '" +
                     pipeline.name +
                     "' — its FIFO sizes were proved for another graph "
                     "(stale cache entry? re-run the autotuner)");
    return;  // every structural comparison below would be noise
  }
  if (plan.key.machine != machine_signature()) {
    report.warn(diag::kMachineDrift, -1, "plan",
                "field 'key.machine': plan was tuned on '" +
                    plan.key.machine + "' but this host is '" +
                    machine_signature() +
                    "' — results stay bit-exact, but the frozen worker/"
                    "pinning/burst knobs were chosen for that core count");
  }

  // ---- structural integrity of the frozen FIFO plan ----------------------
  if (plan.fifos.streams.empty()) {
    report.error(diag::kPlanMismatch, -1, "plan",
                 "field 'fifos.streams': plan carries no FIFO streams — the "
                 "engine would have nothing to wire");
    return;
  }
  const int n = pipeline.size();
  bool structural_ok = true;
  for (std::size_t i = 0; i < plan.fifos.streams.size(); ++i) {
    const PlannedStream& s = plan.fifos.streams[i];
    if (s.producer < -1 || s.producer >= n) {
      report.error(diag::kPlanMismatch, s.producer,
                   stream_field(i, s, "producer"),
                   "node index " + std::to_string(s.producer) +
                       " is outside this pipeline's 0.." +
                       std::to_string(n - 1) + " range");
      structural_ok = false;
    }
    if (s.consumer < -1 || s.consumer >= n) {
      report.error(diag::kPlanMismatch, s.consumer,
                   stream_field(i, s, "consumer"),
                   "node index " + std::to_string(s.consumer) +
                       " is outside this pipeline's 0.." +
                       std::to_string(n - 1) + " range");
      structural_ok = false;
    }
    if (s.capacity == 0) {
      report.error(diag::kPlanMismatch, s.consumer,
                   stream_field(i, s, "capacity"),
                   "zero-capacity FIFO cannot carry a single value (corrupt "
                   "deserialization?)");
      structural_ok = false;
    }
  }
  // The engine wires the plan's streams verbatim, so the plan must cover
  // exactly the edges this pipeline has. Topology depends only on the
  // pipeline, never on tuning knobs, so the default derivation is the
  // ground truth to compare against.
  if (structural_ok) {
    const FifoPlan expected = plan_fifos(pipeline);
    for (const PlannedStream& want : expected.streams) {
      const EdgeId id = edge_id(want);
      const bool found = std::any_of(
          plan.fifos.streams.begin(), plan.fifos.streams.end(),
          [&](const PlannedStream& s) { return edge_id(s) == id; });
      if (!found) {
        report.error(diag::kPlanMismatch, want.consumer, "plan",
                     "field 'fifos.streams': edge '" + want.name +
                         "' of this pipeline has no planned stream — the "
                         "engine could not wire the graph from this plan");
      }
    }
    if (plan.fifos.streams.size() != expected.streams.size()) {
      report.error(
          diag::kPlanMismatch, -1, "plan",
          "field 'fifos.streams': plan wires " +
              std::to_string(plan.fifos.streams.size()) +
              " streams but this pipeline has " +
              std::to_string(expected.streams.size()) + " edges");
    }
  }

  // ---- burst/FIFO skew (QNN-D612) ----------------------------------------
  for (std::size_t i = 0; i < plan.fifos.streams.size(); ++i) {
    const PlannedStream& s = plan.fifos.streams[i];
    if (s.burst > s.capacity) {
      report.error(diag::kBurstFifoSkew, s.consumer,
                   stream_field(i, s, "burst"),
                   "burst " + std::to_string(s.burst) +
                       " exceeds the stream's own FIFO capacity " +
                       std::to_string(s.capacity) +
                       " — deserialization skew: the engine would clamp it "
                       "(QNN-D302) while the link models price the "
                       "unclamped value");
    } else if (s.burst == 0 && s.consumer >= 0) {
      report.error(diag::kBurstFifoSkew, s.consumer,
                   stream_field(i, s, "burst"),
                   "zero burst on a consumed edge — the consumer would "
                   "never frame a transaction");
    }
  }
  // link_bursts is derived from `fifos` at compile time; after a round trip
  // through the cache the two can only disagree if the file was edited or
  // truncated. Skew here only mis-prices the sim/partition link models (the
  // engine reads `fifos` directly), hence warning severity.
  for (const SimConfig::EdgeBurst& lb : plan.link_bursts) {
    const auto it = std::find_if(
        plan.fifos.streams.begin(), plan.fifos.streams.end(),
        [&](const PlannedStream& s) {
          return s.consumer == lb.consumer && s.to_skip_port == lb.to_skip_port;
        });
    if (it == plan.fifos.streams.end()) {
      // An edge into a BnAct has no ring, only this price.
      if (!lb.to_skip_port && lb.consumer >= 0 && lb.consumer < n &&
          pipeline.node(lb.consumer).kind == NodeKind::BnAct) {
        continue;
      }
      report.warn(diag::kBurstFifoSkew, lb.consumer, "plan",
                  "field 'link_bursts': entry for node " +
                      std::to_string(lb.consumer) +
                      (lb.to_skip_port ? " (skip port)" : " (main port)") +
                      " matches no planned stream");
    } else if (lb.values != it->burst) {
      report.warn(diag::kBurstFifoSkew, lb.consumer, "plan",
                  "field 'link_bursts': node " + std::to_string(lb.consumer) +
                      (lb.to_skip_port ? " (skip port)" : " (main port)") +
                      " prices " + std::to_string(lb.values) +
                      " values per transaction but stream '" + it->name +
                      "' frames " + std::to_string(it->burst) +
                      " — the link models and the engine disagree");
    }
  }

  if (report.errors() == before_errors &&
      report.warnings() == before_warnings) {
    report.info(diag::kPlanMismatch, -1, "plan",
                "compiled plan " + plan.fingerprint() +
                    " re-verified: model hash, machine, " +
                    std::to_string(plan.fifos.streams.size()) +
                    " streams and " + std::to_string(plan.link_bursts.size()) +
                    " link bursts are consistent");
  }
}

void lint_pool_pinning(const std::vector<ReplicaPinWindow>& windows,
                       Report& report, int hardware_cores) {
  const unsigned cores =
      hardware_cores > 0
          ? static_cast<unsigned>(hardware_cores)
          : std::max(1u, std::thread::hardware_concurrency());
  int findings = 0;
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const ReplicaPinWindow& a = windows[i];
    if (a.threads == 0) continue;
    ++pinned;
    if (a.pin_offset + a.threads > cores) {
      // The executor binds worker w to core (pin_offset + w) % cores, so a
      // window past the end is not "out of range" — it silently wraps onto
      // core 0 and collides with whoever legitimately owns it.
      report.warn(diag::kPinOverlap, -1, a.label,
                  "pin window [" + std::to_string(a.pin_offset) + ", " +
                      std::to_string(a.pin_offset + a.threads) +
                      ") extends past the last hardware core (machine has " +
                      std::to_string(cores) +
                      ") — the executor wraps pins modulo the core count, "
                      "an overlap in disguise");
      ++findings;
    }
    for (std::size_t j = i + 1; j < windows.size(); ++j) {
      const ReplicaPinWindow& b = windows[j];
      if (b.threads == 0) continue;
      const unsigned lo = std::max(a.pin_offset, b.pin_offset);
      const unsigned hi =
          std::min(a.pin_offset + a.threads, b.pin_offset + b.threads);
      if (lo < hi) {
        report.warn(diag::kPinOverlap, -1, a.label,
                    "pin window overlaps '" + b.label + "' on cores [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        ") — the two replicas time-share those cores and "
                        "the pool's throughput collapses toward one "
                        "replica's");
        ++findings;
      }
    }
  }
  if (findings == 0 && pinned >= 2) {
    report.info(diag::kPinOverlap, -1, "pool",
                std::to_string(pinned) +
                    " pinned replica windows are pairwise disjoint on " +
                    std::to_string(cores) + " hardware cores");
  }
}

}  // namespace qnn
