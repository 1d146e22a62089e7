// Serving-layer benchmark: throughput and latency of DfeServer versus
// replica count and micro-batching, plus behavior at the overload cliff.
//
// The paper's pipeline only delivers its throughput while it is kept full
// (§III-B); this bench quantifies how much the serving layer contributes:
// the same closed-loop load is driven at a single unbatched replica (the
// naive DfeSession::infer() deployment) and at replica farms with dynamic
// micro-batching, all on the default engine. The farm speedup is reported,
// not gated: the engine's persistent worker pool already amortizes most of
// the per-run cost that micro-batching exists to hide. A final open-loop
// Poisson run pushes a small server past saturation to show admission
// control rejecting instead of queuing without bound.
//
// Output: the usual table (CSV via QNN_CSV_DIR) plus a JSON block on
// stdout for scripted consumption.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "backend/builtin.h"
#include "bench_host.h"
#include "bench_util.h"
#include "fault/fault.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "plan/autotune.h"
#include "serve/load_generator.h"
#include "serve/server.h"

namespace qnn {
namespace {

struct Scenario {
  std::string label;
  int replicas;
  int max_batch;
};

// ---- autotuned-plan ablation --------------------------------------------
//
// The plan/ autotuner's payoff measured where it matters: the same
// single-replica server is compiled twice — once against the default
// CompiledPlan (exactly what the engine would decide on its own) and once
// against the SLO-tuned winner — and scored three ways, every repeat
// alternating between the two live arms so machine drift hits both:
//
//   * raw        -> the tuning metric itself: micro-batched infer
//                   throughput on a bare session, repeats paired;
//   * closed loop -> serving capacity (achieved qps at saturation);
//   * open loop   -> p99 at a FIXED offered rate just under the default
//                    plan's capacity, where a capacity edge amplifies
//                    into a queueing-delay gap (wait ~ rho/(1-rho)).
//
// The recorded BENCH_autotune.json must show the tuned plan >= 1.15x the
// default on a throughput metric OR <= 0.87x its p99 ("pass": true); the
// exit code enforces the structural invariant that survives this 1-core
// box's run-to-run mood swings — the tuned plan LOSES on no throughput
// metric beyond the noise floor. PERF=1 tools/check.sh replays the
// ablation and additionally pins the tuned arm's capacity to the
// committed baseline, mirroring the executor-ablation gate.

struct PlanArmResult {
  double raw_ips = 0.0;
  double capacity_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t open_ok = 0;
  std::uint64_t open_rejected = 0;
};

/// One timed pass of `chunks` through a bare session (no server in
/// front); the best of the interleaved repeats lands in `arm.raw_ips`.
void measure_raw(BackendSession& session,
                 const std::vector<std::vector<IntTensor>>& chunks,
                 std::size_t total_images, PlanArmResult& arm) {
  const auto start = std::chrono::steady_clock::now();
  for (const std::vector<IntTensor>& chunk : chunks) {
    (void)session.infer_batch(chunk);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (elapsed > 0.0) {
    arm.raw_ips =
        std::max(arm.raw_ips, static_cast<double>(total_images) / elapsed);
  }
}

/// Latency-oriented micro-batching: with small batches every run() pays
/// the pipeline fill and drain that the plan's burst and FIFO choices
/// move — the regime where a tuned plan earns its keep.
ServerConfig ablation_server_config() {
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 200;
  cfg.queue_capacity = 4096;    // queueing shows as latency, not rejects
  cfg.quarantine_after = 1000;  // keep healing out of the comparison
  return cfg;
}

/// Closed-loop capacity, best of `repeats` (interference only ever slows
/// a run down, so the max is the cleanest estimate on a shared box).
void measure_capacity(LoadGenerator& gen, int repeats, PlanArmResult& arm) {
  for (int r = 0; r < repeats; ++r) {
    const LoadResult res = gen.closed_loop(/*clients=*/16,
                                           /*requests_per_client=*/32);
    arm.capacity_qps = std::max(arm.capacity_qps, res.achieved_qps);
  }
}

/// Open-loop tail latency at `offered_qps`; keeps the lowest-p99 repeat
/// (same best-of-repeats argument). The Poisson schedule is seeded, so
/// both arms see the identical arrival process on each repeat.
void measure_tail(LoadGenerator& gen, double offered_qps, int repeat,
                  PlanArmResult& arm) {
  const int n = std::max(256, static_cast<int>(offered_qps * 0.75));
  const LoadResult res =
      gen.open_loop(offered_qps, n, /*seed=*/static_cast<std::uint64_t>(
                                        17 + repeat));
  if (arm.p99_us == 0.0 || res.p99_us < arm.p99_us) {
    arm.p50_us = res.p50_us;
    arm.p99_us = res.p99_us;
    arm.open_ok = res.ok;
    arm.open_rejected = res.rejected_overload + res.rejected_deadline;
  }
}

int run_autotune() {
  bench::heading("Autotuned-plan ablation",
                 "default CompiledPlan vs the SLO-tuned winner: paired raw "
                 "micro-batch throughput, closed-loop capacity, and p99 at "
                 "a fixed offered rate near the default plan's capacity");

  const NetworkSpec spec = models::tiny(8, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 80);
  SessionConfig base;
  base.fast_estimate = true;
  const std::vector<IntTensor> images = synthetic_batch(8, 8, 8, 3, 81);

  // Tune FOR the serving regime below: a latency SLO, so calibration runs
  // micro-batches (spin-up paid per run) instead of one big batch.
  AutotuneConfig tune;
  tune.slo_us = 2000;
  tune.calibration_micro_batch = 4;  // matches the server's max_batch
  tune.time_budget_s = 20.0;
  const AutotuneResult tuned = autotune(pipeline, params, tune);
  std::cout << "autotune: " << tuned.evaluated << " candidates verified, "
            << tuned.pruned << " pruned; winner "
            << tuned.best.fingerprint() << " (burst "
            << tuned.best.burst
            << (tuned.best.adaptive_burst ? ", adaptive" : ", flat")
            << ", fifo " << tuned.best.fifo_capacity << ", pool "
            << tuned.best.pool_threads << ") — "
            << Table::num(tuned.best_ips, 1) << " vs "
            << Table::num(tuned.default_ips, 1) << " fps raw\n\n";

  // The default arm gets an EXPLICIT default plan (autotune candidate 0)
  // so a warm QNN_PLAN_CACHE in the environment cannot silently replace it.
  const auto default_plan =
      std::make_shared<const CompiledPlan>(tuned.candidates.front().plan);
  const auto tuned_plan = std::make_shared<const CompiledPlan>(tuned.best);

  PlanArmResult def;
  PlanArmResult tun;

  // Raw paired probe: bare sessions, the tuning metric re-measured with
  // repeats interleaved across the two arms.
  {
    const Backend& engine = backend_registry().at(tuned.best.backend);
    EngineOptions def_opts;
    default_plan->apply_engine(def_opts);
    def_opts.plan = default_plan.get();
    EngineOptions tun_opts;
    tuned_plan->apply_engine(tun_opts);
    tun_opts.plan = tuned_plan.get();
    const auto def_session = engine.compile(pipeline, params, def_opts);
    const auto tun_session = engine.compile(pipeline, params, tun_opts);
    const std::vector<IntTensor> raw_images =
        synthetic_batch(64, 8, 8, 3, 82);
    std::vector<std::vector<IntTensor>> chunks;
    for (std::size_t i = 0; i < raw_images.size(); i += 4) {
      chunks.emplace_back(raw_images.begin() + static_cast<std::ptrdiff_t>(i),
                          raw_images.begin() +
                              static_cast<std::ptrdiff_t>(
                                  std::min(raw_images.size(), i + 4)));
    }
    (void)def_session->infer(raw_images.front());  // warm-up
    (void)tun_session->infer(raw_images.front());
    for (int r = 0; r < 4; ++r) {
      measure_raw(*def_session, chunks, raw_images.size(), def);
      measure_raw(*tun_session, chunks, raw_images.size(), tun);
    }
  }

  // Both servers live for the whole measurement and every repeat
  // alternates between them, so drift on a shared box hits both equally.
  SessionConfig def_sc = base;
  def_sc.plan = default_plan;
  SessionConfig tun_sc = base;
  tun_sc.plan = tuned_plan;
  const ServerConfig cfg = ablation_server_config();
  DfeServer def_server(spec, params, cfg, def_sc);
  DfeServer tun_server(spec, params, cfg, tun_sc);
  LoadGenerator def_gen(def_server, images);
  LoadGenerator tun_gen(tun_server, images);
  (void)def_gen.closed_loop(/*clients=*/8, /*requests_per_client=*/8);
  (void)tun_gen.closed_loop(/*clients=*/8, /*requests_per_client=*/8);

  for (int r = 0; r < 3; ++r) {
    measure_capacity(def_gen, /*repeats=*/1, def);
    measure_capacity(tun_gen, /*repeats=*/1, tun);
  }
  // Shared offered rate for the tail comparison: just under the DEFAULT
  // plan's capacity, the regime where the tuned plan's capacity edge
  // compounds into queueing headroom.
  const double offered = 0.92 * def.capacity_qps;
  for (int r = 0; r < 3; ++r) {
    measure_tail(def_gen, offered, r, def);
    measure_tail(tun_gen, offered, r, tun);
  }
  def_server.stop();
  tun_server.stop();

  Table t({"plan", "raw fps", "capacity qps", "p50 us @ offered",
           "p99 us @ offered", "open ok", "rejected"});
  const auto row = [&](const char* label, const PlanArmResult& a) {
    t.add_row({label, Table::num(a.raw_ips, 1), Table::num(a.capacity_qps, 1),
               Table::num(a.p50_us, 0), Table::num(a.p99_us, 0),
               Table::integer(a.open_ok), Table::integer(a.open_rejected)});
  };
  row("default", def);
  row("autotuned", tun);
  bench::emit(t, "bench_autotune");

  const double raw_ratio = def.raw_ips > 0.0 ? tun.raw_ips / def.raw_ips : 0.0;
  const double cap_ratio =
      def.capacity_qps > 0.0 ? tun.capacity_qps / def.capacity_qps : 0.0;
  const double p99_ratio = def.p99_us > 0.0 ? tun.p99_us / def.p99_us : 1.0;
  // The recorded artifact's bar: a >= 1.15x throughput win on either
  // throughput metric, or a <= 0.87x p99 win.
  const bool pass =
      raw_ratio >= 1.15 || cap_ratio >= 1.15 || p99_ratio <= 0.87;
  // The exit-code bar: the tuned plan did not LOSE on a throughput metric
  // (beyond the noise floor of this box). The p99 near saturation is
  // reported but not gated — queueing amplifies noise as much as signal.
  const bool no_loss = raw_ratio >= 0.90 && cap_ratio >= 0.90;
  std::cout << "\ntuned/default: raw " << Table::num(raw_ratio, 3)
            << "x, capacity " << Table::num(cap_ratio, 3) << "x, p99 @ "
            << Table::num(offered, 0) << " qps offered "
            << Table::num(p99_ratio, 3)
            << "x (recorded bar: >= 1.15x throughput OR <= 0.87x p99; "
               "exit bar: tuned loses on no throughput metric)\n";

  std::ostringstream json;
  json << "{\n  \"model\": \"" << spec.name << "\",\n"
       << "  \"tuned_fingerprint\": \"" << tuned.best.fingerprint()
       << "\",\n  \"autotune\": {\"evaluated\": " << tuned.evaluated
       << ", \"pruned\": " << tuned.pruned
       << ", \"default_ips\": " << tuned.default_ips
       << ", \"best_ips\": " << tuned.best_ips << "},\n"
       << "  \"offered_qps\": " << offered << ",\n";
  const auto arm_json = [&](const char* label, const PlanArmResult& a) {
    json << "  \"" << label << "\": {\"raw_ips\": " << a.raw_ips
         << ", \"capacity_qps\": " << a.capacity_qps
         << ", \"p50_us\": " << a.p50_us << ", \"p99_us\": " << a.p99_us
         << ", \"open_ok\": " << a.open_ok
         << ", \"open_rejected\": " << a.open_rejected << "}";
  };
  arm_json("default", def);
  json << ",\n";
  arm_json("tuned", tun);
  json << ",\n  \"raw_ratio\": " << raw_ratio
       << ",\n  \"throughput_ratio\": " << cap_ratio
       << ",\n  \"p99_ratio\": " << p99_ratio
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "\n" << json.str();
  bench::write_json("BENCH_autotune.json", json.str());
  return no_loss ? 0 : 1;
}

// ---- link-fault ablation ------------------------------------------------
//
// The multi-DFE live path's robustness contract, measured end to end: the
// same closed-loop load is served by a partitioned LinkedEngine replica
// (one dataflow graph cut into 4 segments by 3 MaxRing links) twice — once
// healthy, once with link 1 permanently killed by fault injection a few
// frames into the warm-up. The link watchdog escalates, the failover
// ladder recompiles a degraded plan with the dead link derated to health
// 0, and the measured window below runs steady state on that plan. The
// bar is served throughput at >= 70% of the healthy baseline with ZERO
// request errors and the failover actually observed — the farm degrades
// to fewer segments instead of collapsing or losing work. A third arm
// serves the same load from one unsplit `engine` replica: the healthy
// linked farm must hold >= 80% of it, so splitting stays nearly free
// (paper §III-C).

constexpr const char* kLinkedBackend = "linked-4dfe-bench";

int run_linkfault() {
  bench::heading("Link-fault ablation",
                 "closed-loop load at a 4-segment linked replica vs the "
                 "same replica with MaxRing link 1 killed mid-warm-up");

  // vgg_like(16, ...) expands to a purely sequential chain, so the 4-DFE
  // cut {4, 9, 14} (one link per maxpool boundary) is always chain-valid.
  const NetworkSpec spec = models::vgg_like(16, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 77);
  if (backend_registry().find(kLinkedBackend) == nullptr) {
    LinkedEngineOptions defaults;
    defaults.cut_after_nodes = {4, 9, 14};
    // Tight watchdog so the seeded death escalates inside the warm-up.
    defaults.ack_timeout_us = 2'000;
    defaults.max_retransmits = 3;
    defaults.retransmit_backoff_us = 200;
    (void)backend_registry().register_backend(
        make_linked_backend(defaults, kLinkedBackend));
  }
  SessionConfig session_config;
  session_config.fast_estimate = true;
  SessionConfig linked_sc = session_config;
  linked_sc.backend = kLinkedBackend;
  const std::vector<IntTensor> images = synthetic_batch(8, 16, 16, 3, 91);

  // Both farms live for the whole measurement, windows interleaved
  // healthy/faulted per repeat: machine drift (and a 1-core box's mood)
  // hits both arms alike, so the throughput ratio survives run-to-run
  // noise that would sink any sequential A-then-B comparison.
  SessionConfig faulted_sc = linked_sc;
  faulted_sc.engine.faults.add(FaultPlan::link_death(
      /*link=*/1, /*run=*/0, /*after_frames=*/4));
  const auto farm_config = [] {
    ServerConfig cfg;
    cfg.max_batch = 8;
    cfg.batch_timeout_us = 500;
    cfg.queue_capacity = 1024;
    cfg.max_retries = 3;
    cfg.retry_backoff_us = 100;
    return cfg;
  }();
  DfeServer healthy_farm(spec, params, farm_config, linked_sc);
  DfeServer faulted_farm(spec, params, farm_config, faulted_sc);
  DfeServer single_farm(spec, params, farm_config, session_config);
  LoadGenerator healthy_load(healthy_farm, images);
  LoadGenerator faulted_load(faulted_farm, images);
  LoadGenerator single_load(single_farm, images);
  // Warm-up triggers the seeded death and the degraded-plan recompile on
  // the faulted arm, so the windows below are steady state on every plan.
  (void)healthy_load.closed_loop(/*clients=*/4, /*requests_per_client=*/4);
  (void)faulted_load.closed_loop(/*clients=*/4, /*requests_per_client=*/4);
  (void)single_load.closed_loop(/*clients=*/4, /*requests_per_client=*/4);

  struct Arm {
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    double wall_s = 0.0;
    double p50_us = 0.0;  // of the last window
    double p99_us = 0.0;

    [[nodiscard]] double qps() const {
      return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
    }
  };
  struct Farm {
    const char* label;
    LoadGenerator& load;
    DfeServer& server;
    Arm arm;
  };
  Farm farms[] = {{"healthy 4-segment", healthy_load, healthy_farm, {}},
                  {"link 1 dead (failed over)", faulted_load, faulted_farm,
                   {}},
                  {"single unsplit engine", single_load, single_farm, {}}};
  constexpr int kRepeats = 4;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (Farm& f : farms) {
      const LoadResult r =
          f.load.closed_loop(/*clients=*/8, /*requests_per_client=*/8);
      f.arm.ok += r.ok;
      f.arm.errors += r.errors;
      f.arm.wall_s += r.wall_seconds;
      f.arm.p50_us = r.p50_us;
      f.arm.p99_us = r.p99_us;
    }
  }
  bool no_loss = true;
  std::vector<MetricsSnapshot> snaps;
  for (Farm& f : farms) {
    f.server.stop();
    snaps.push_back(f.server.metrics().snapshot());
    no_loss = no_loss && f.arm.errors == 0 && snaps.back().errors == 0;
  }
  const double healthy_qps = farms[0].arm.qps();
  const double faulted_qps = farms[1].arm.qps();
  const double single_qps = farms[2].arm.qps();
  const bool failover_seen = snaps[1].plan_failovers >= 1;

  Table t({"configuration", "qps", "p50 us", "p99 us", "frames",
           "retransmits", "failovers", "link 1"});
  std::ostringstream json;
  json << "{\n  \"host\": " << bench::host_json()
       << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const Arm& arm = farms[i].arm;
    const MetricsSnapshot& m = snaps[i];
    const double link1 = m.links > 1 ? m.link_health[1] : -1.0;
    t.add_row({farms[i].label, Table::num(arm.qps(), 1),
               Table::num(arm.p50_us, 0), Table::num(arm.p99_us, 0),
               Table::integer(m.link_frames),
               Table::integer(m.link_retransmits),
               Table::integer(m.plan_failovers), Table::num(link1, 2)});
    json << "    {\"label\": \"" << farms[i].label
         << "\", \"qps\": " << arm.qps() << ", \"p50_us\": " << arm.p50_us
         << ", \"p99_us\": " << arm.p99_us << ", \"ok\": " << arm.ok
         << ", \"errors\": " << arm.errors
         << ", \"link_frames\": " << m.link_frames
         << ", \"link_retransmits\": " << m.link_retransmits
         << ", \"plan_failovers\": " << m.plan_failovers
         << ", \"link1_health\": " << link1 << "}"
         << (i + 1 < snaps.size() ? "," : "") << "\n";
  }
  bench::emit(t, "bench_linkfault");
  const double ratio = healthy_qps > 0.0 ? faulted_qps / healthy_qps : 0.0;
  const double split = single_qps > 0.0 ? healthy_qps / single_qps : 0.0;
  json << "  ],\n  \"degraded_over_healthy\": " << ratio
       << ",\n  \"healthy_over_single\": " << split
       << ",\n  \"zero_lost\": " << (no_loss ? "true" : "false")
       << ",\n  \"failover_observed\": " << (failover_seen ? "true" : "false")
       << "\n}\n";
  std::cout << "\ndegraded/healthy served throughput: "
            << Table::num(ratio, 2)
            << " (acceptance bar: >= 0.70, zero lost requests, failover "
               "observed)\nhealthy linked/single unsplit: "
            << Table::num(split, 2) << " (acceptance bar: >= 0.80)\n\n"
            << json.str();
  bench::write_json("BENCH_linkfault.json", json.str());
  return ratio >= 0.70 && split >= 0.80 && no_loss && failover_seen ? 0 : 1;
}

int run() {
  bench::heading("Serving throughput/latency",
                 "closed-loop load vs. replica count and micro-batching; "
                 "open-loop Poisson overload at the end");

  const NetworkSpec spec = models::tiny(8, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 80);
  SessionConfig session_config;
  session_config.fast_estimate = true;
  const std::vector<IntTensor> images = synthetic_batch(8, 8, 8, 3, 81);

  constexpr int kClients = 64;
  constexpr int kRequestsPerClient = 8;
  const std::vector<Scenario> scenarios = {
      {"1 replica, unbatched", 1, 1},
      {"1 replica, batch 16", 1, 16},
      {"4 replicas, unbatched", 4, 1},
      {"4 replicas, batch 16", 4, 16},
  };

  Table t({"configuration", "replicas", "max_batch", "qps", "p50 us",
           "p95 us", "p99 us", "mean batch", "speedup"});
  std::ostringstream json;
  json << "{\n  \"scenarios\": [\n";
  double baseline_qps = 0.0;
  double farm_qps = 0.0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    ServerConfig cfg;
    cfg.replicas = sc.replicas;
    cfg.max_batch = sc.max_batch;
    cfg.batch_timeout_us = 5000;
    cfg.queue_capacity = 1024;
    DfeServer server(spec, params, cfg, session_config);
    LoadGenerator gen(server, images);
    const LoadResult r = gen.closed_loop(kClients, kRequestsPerClient);
    server.stop();
    const double batch_mean = server.metrics().snapshot().mean_batch_size();
    if (i == 0) baseline_qps = r.achieved_qps;
    if (sc.replicas == 4 && sc.max_batch > 1) farm_qps = r.achieved_qps;
    const double speedup =
        baseline_qps > 0.0 ? r.achieved_qps / baseline_qps : 0.0;
    t.add_row({sc.label, Table::integer(sc.replicas),
               Table::integer(sc.max_batch), Table::num(r.achieved_qps, 1),
               Table::num(r.p50_us, 0), Table::num(r.p95_us, 0),
               Table::num(r.p99_us, 0), Table::num(batch_mean, 2),
               Table::num(speedup, 2)});
    json << "    {\"label\": \"" << sc.label
         << "\", \"replicas\": " << sc.replicas
         << ", \"max_batch\": " << sc.max_batch
         << ", \"qps\": " << r.achieved_qps << ", \"p50_us\": " << r.p50_us
         << ", \"p95_us\": " << r.p95_us << ", \"p99_us\": " << r.p99_us
         << ", \"mean_batch\": " << batch_mean << ", \"speedup\": " << speedup
         << "}" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  bench::emit(t, "bench_serving");
  const double speedup =
      baseline_qps > 0.0 ? farm_qps / baseline_qps : 0.0;
  std::cout << "\nfarm speedup (4 replicas + batching vs 1 unbatched): "
            << Table::num(speedup, 2) << "x\n";

  // Overload: a deliberately small server under an open-loop Poisson flood.
  ServerConfig small;
  small.replicas = 1;
  small.max_batch = 4;
  small.batch_timeout_us = 500;
  small.queue_capacity = 8;
  small.default_deadline_us = 50000;
  DfeServer server(spec, params, small, session_config);
  LoadGenerator gen(server, images);
  const LoadResult overload =
      gen.open_loop(/*rate_qps=*/4000.0, /*total_requests=*/400, /*seed=*/82);
  server.stop();
  std::cout << "\noverload (open loop, 4000 qps offered at a 1-replica, "
               "8-deep-queue server):\n  "
            << overload.str() << "\n\n"
            << server.metrics_report();

  const MetricsSnapshot s = server.metrics().snapshot();
  json << "  ],\n  \"farm_speedup\": " << speedup
       << ",\n  \"overload\": {\"offered\": " << overload.offered
       << ", \"ok\": " << overload.ok
       << ", \"rejected_overload\": " << s.rejected_overload
       << ", \"rejected_deadline\": " << s.rejected_deadline
       << ", \"e2e_p50_us\": " << server.metrics().end_to_end().percentile(50)
       << ", \"e2e_p95_us\": " << server.metrics().end_to_end().percentile(95)
       << ", \"e2e_p99_us\": " << server.metrics().end_to_end().percentile(99)
       << "}\n}\n";
  std::cout << "\n" << json.str();

  // Robustness ablation: the identical 4-replica farm, healthy versus with
  // replica 0 permanently wedged by an injected kernel hang. The healing
  // stack (watchdog budget cancel -> retry on another replica -> quarantine
  // -> brownout) must keep steady-state throughput at >= 70% of the healthy
  // baseline — the farm degrades to 3/4 capacity instead of collapsing.
  bench::heading("Robustness ablation",
                 "closed-loop load at a healthy 4-replica farm vs the same "
                 "farm with 1 replica hung by fault injection");
  Table rt({"configuration", "qps", "p50 us", "p99 us", "retries",
            "cancels", "quarantines", "replica 0"});
  double healthy_qps = 0.0;
  double faulted_qps = 0.0;
  std::ostringstream rj;
  rj << "{\n  \"scenarios\": [\n";
  for (const bool faulted : {false, true}) {
    SessionConfig sc = session_config;
    if (faulted) {
      FaultEvent hang =
          FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
      hang.target_index = 0;
      hang.replica = 0;
      hang.last_run = 1'000'000'000;  // wedged for the whole bench
      sc.engine.faults.add(hang);
    }
    ServerConfig cfg;
    cfg.replicas = 4;
    cfg.max_batch = 8;
    cfg.batch_timeout_us = 1000;
    cfg.queue_capacity = 1024;
    cfg.run_budget_us = 20'000;
    cfg.watchdog_period_us = 500;
    cfg.quarantine_after = 1;
    cfg.max_retries = 3;
    cfg.retry_backoff_us = 100;
    DfeServer farm(spec, params, cfg, sc);
    LoadGenerator load(farm, images);
    // Warm-up discovers the wedged replica (budget cancel + quarantine)
    // before the measured window, so the run below is steady state.
    (void)load.closed_loop(/*clients=*/8, /*requests_per_client=*/4);
    const LoadResult r =
        load.closed_loop(/*clients=*/32, /*requests_per_client=*/8);
    farm.stop();
    const MetricsSnapshot m = farm.metrics().snapshot();
    const char* replica0 = to_string(farm.replica_health(0));
    (faulted ? faulted_qps : healthy_qps) = r.achieved_qps;
    rt.add_row({faulted ? "1-of-4 replicas hung" : "healthy baseline",
                Table::num(r.achieved_qps, 1), Table::num(r.p50_us, 0),
                Table::num(r.p99_us, 0), Table::integer(m.retries),
                Table::integer(m.watchdog_budget_cancels +
                               m.watchdog_deadline_cancels),
                Table::integer(m.quarantines), replica0});
    rj << "    {\"label\": \""
       << (faulted ? "1-of-4 replicas hung" : "healthy baseline")
       << "\", \"qps\": " << r.achieved_qps << ", \"p50_us\": " << r.p50_us
       << ", \"p99_us\": " << r.p99_us << ", \"ok\": " << r.ok
       << ", \"errors\": " << r.errors << ", \"retries\": " << m.retries
       << ", \"watchdog_cancels\": "
       << (m.watchdog_budget_cancels + m.watchdog_deadline_cancels)
       << ", \"quarantines\": " << m.quarantines
       << ", \"brownout_entries\": " << m.brownout_entries
       << ", \"replica0_health\": \"" << replica0 << "\"}"
       << (faulted ? "" : ",") << "\n";
  }
  bench::emit(rt, "bench_robustness");
  const double ratio = healthy_qps > 0.0 ? faulted_qps / healthy_qps : 0.0;
  rj << "  ],\n  \"degraded_over_healthy\": " << ratio << "\n}\n";
  std::cout << "\ndegraded/healthy throughput: " << Table::num(ratio, 2)
            << " (acceptance bar: >= 0.70)\n\n"
            << rj.str();
  bench::write_json("BENCH_robustness.json", rj.str());
  const int autotune_rc = run_autotune();
  const int linkfault_rc = run_linkfault();
  return ratio >= 0.70 && autotune_rc == 0 && linkfault_rc == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qnn

int main(int argc, char** argv) {
  // --autotune-only / --link-fault-only: just one ablation and its bar —
  // the pieces tools/check.sh runs under PERF=1.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--autotune-only") == 0) {
      return qnn::run_autotune();
    }
    if (std::strcmp(argv[i], "--link-fault-only") == 0) {
      return qnn::run_linkfault();
    }
  }
  return qnn::run();
}
