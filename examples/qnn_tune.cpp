// qnn_tune: autotune a compile-time plan for a zoo model and cache it.
//
// The autotuner (plan/autotune.h) sweeps the CompiledPlan knob grid —
// burst cap, adaptive per-edge bursts, FIFO depth — ranking candidates
// with the sim/ cycle model and deciding among the leaders with a short
// live calibration run. Every candidate is proved deadlock-free by verify/
// before it may run. The winner is written to the plan cache keyed by
// (model hash, machine signature, SLO), so the next DfeSession / DfeServer
// cold start on this machine loads it instead of the default plan
// (observable as a "plan-cache-hit" event in the serving metrics).
//
//   ./qnn_tune                         # tune models::tiny, print the table
//   ./qnn_tune --model vgg --size 16   # another zoo model / input size
//   ./qnn_tune --cache /tmp/plans      # persist the winner (or set
//                                      # QNN_PLAN_CACHE)
//   ./qnn_tune --budget 20 --check     # bounded run; exit 1 if the tuned
//                                      # plan lost to the default on the
//                                      # deciding metric (CI gate)
#include <cstring>
#include <iostream>
#include <string>

#include "io/table.h"
#include "models/zoo.h"
#include "nn/params.h"
#include "plan/autotune.h"
#include "plan/cache.h"
#include "plan/json.h"

int main(int argc, char** argv) {
  using namespace qnn;
  std::string model = "tiny";
  std::string cache_dir = PlanCache::default_dir();
  int size = 0;  // 0 = the model's own default input size
  bool check = false;
  AutotuneConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--model") {
      model = next();
    } else if (arg == "--size") {
      size = std::stoi(next());
    } else if (arg == "--cache") {
      cache_dir = next();
    } else if (arg == "--budget") {
      config.time_budget_s = std::stod(next());
    } else if (arg == "--slo") {
      config.slo_us = std::stoll(next());
    } else if (arg == "--micro") {
      config.calibration_micro_batch = std::stoi(next());
    } else if (arg == "--check") {
      check = true;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }

  NetworkSpec spec;
  if (model == "tiny") {
    spec = models::tiny(size > 0 ? size : 12, 4, 2);
  } else if (model == "vgg") {
    spec = models::vgg_like(size > 0 ? size : 32);
  } else if (model == "finn") {
    spec = models::finn_cnv();
  } else if (model == "alexnet") {
    spec = models::alexnet(size > 0 ? size : 224);
  } else {
    std::cerr << "unknown model \"" << model
              << "\" (try tiny, vgg, finn, alexnet)\n";
    return 2;
  }
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 11);

  std::cout << "tuning " << pipeline.name << " on " << machine_signature()
            << " (budget " << config.time_budget_s << " s)\n\n";
  const AutotuneResult result = autotune(pipeline, params, config);

  Table t({"candidate", "burst", "adaptive", "fifo", "pool",
           "predicted fps", "measured fps"});
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const AutotuneCandidate& c = result.candidates[i];
    t.add_row({i == 0 ? "default" : std::to_string(i),
               Table::integer(static_cast<std::int64_t>(c.plan.burst)),
               c.plan.adaptive_burst ? "yes" : "no",
               Table::integer(static_cast<std::int64_t>(c.plan.fifo_capacity)),
               Table::integer(c.plan.pool_threads),
               c.verified ? Table::num(c.predicted_ips, 1) : "PRUNED",
               c.measured_ips > 0 ? Table::num(c.measured_ips, 1) : "-"});
  }
  t.print(std::cout);
  std::cout << "\n" << result.evaluated << " candidates verified, "
            << result.pruned << " pruned by the analyzer\n";
  std::cout << "winner: " << result.best.fingerprint() << " (burst "
            << result.best.burst
            << (result.best.adaptive_burst ? ", adaptive" : ", flat")
            << ", fifo " << result.best.fifo_capacity << ", pool "
            << result.best.pool_threads << ") — "
            << Table::num(result.best_ips, 1) << " fps vs "
            << Table::num(result.default_ips, 1) << " fps default ("
            << Table::num(result.default_ips > 0
                              ? result.best_ips / result.default_ips
                              : 1.0,
                          3)
            << "x)\n";

  const PlanCache cache(cache_dir);
  if (cache.enabled()) {
    if (cache.store(result.best)) {
      std::cout << "cached: " << cache.path_for(result.best.key) << "\n";
    } else {
      std::cerr << "failed to write " << cache.path_for(result.best.key)
                << "\n";
      return 1;
    }
  } else {
    std::cout << "plan cache disabled (pass --cache DIR or set "
                 "QNN_PLAN_CACHE to persist the winner)\n";
  }

  if (check && result.best_ips < result.default_ips) {
    // Structurally impossible (the default is candidate 0 and only a
    // strict improvement replaces it) — this is the CI tripwire for that
    // invariant.
    std::cerr << "CHECK FAILED: tuned plan lost to the default\n";
    return 1;
  }
  return 0;
}
