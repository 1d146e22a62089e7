// Plan autotuner: search the compile-time knob space for a better plan.
//
// The paper tunes its streaming architecture by hand (§IV-B: burst sizing,
// buffer depths, one kernel graph per DFE). This driver automates the
// host-side analog as a small grid search over the CompiledPlan knobs —
// plan-wide burst cap, adaptive and flat per-edge bursts, FIFO depth —
// with two oracles in sequence:
//
//   1. the sim/ cycle model prices each candidate's per-edge bursts and
//      partition cut (predicted_ips), ranking the grid cheaply;
//   2. a short live calibration run (timed StreamEngine runs on
//      synthetic images) decides among the top-ranked candidates,
//      because host scheduling costs are invisible to the DFE cycle model.
//      The top kCalibrateTop candidates each get the best of
//      kCalibrationRepeats timed repeats over kCalibrationImages images
//      (enough to keep a repeat's window well above the OS scheduler tick
//      on a fast model — short windows made the ranking a lottery on a
//      1-core box).
//
// Every candidate is proved deadlock-free by verify/ BEFORE it may run:
// a candidate whose Report is not ok() is pruned, never executed. The
// default plan (exactly what the engine would decide on its own) is always
// candidate 0 and is always calibrated, and the winner must beat it
// STRICTLY on the measured metric — so the tuned plan never loses to the
// default on any reported metric, by construction. tools/check.sh TUNE=1
// asserts that property end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/params.h"
#include "nn/pipeline.h"
#include "plan/compiled_plan.h"

namespace qnn {

/// Candidates (beyond the default) that get a live calibration run,
/// best-predicted first (ties keep grid order).
inline constexpr int kCalibrateTop = 9;
/// Images per timed calibration repeat.
inline constexpr int kCalibrationImages = 64;
/// Timed repeats per calibrated candidate; the BEST repeat is kept
/// (scheduling interference only ever slows a run down).
inline constexpr int kCalibrationRepeats = 3;

struct AutotuneConfig {
  /// Latency budget the plan is tuned for (PlanKey::slo_us); 0 = pure
  /// throughput tuning.
  std::int64_t slo_us = 0;

  // ---- candidate grid ----------------------------------------------------
  /// Plan-wide burst caps to try (the default options' burst is always
  /// tried via candidate 0).
  std::vector<std::size_t> bursts = {64, 128, 256, 512};
  /// Uniform FIFO capacities to try alongside the auto line-buffer sizing
  /// (0). Deeper FIFOs let producers run further ahead — fewer blocking
  /// handoffs, which is what dominates small models on few cores.
  std::vector<std::size_t> fifo_capacities = {0, 4096};

  // ---- live calibration --------------------------------------------------
  /// Measure the top-ranked candidates on a live StreamEngine; without it
  /// the cycle-model prediction picks the winner.
  bool live_calibration = true;
  /// Micro-batch size for the timed runs. 0 = derive: the whole image set
  /// in one run when slo_us == 0 (pure throughput), batches of 4
  /// when an SLO is set. A latency-SLO deployment serves small
  /// micro-batches, so every run pays the per-run pipeline fill and
  /// drain — calibrating on one big batch is blind to exactly the cost
  /// that dominates that regime.
  int calibration_micro_batch = 0;
  /// Seed of the synthetic calibration images.
  std::uint64_t seed = 7;

  /// Soft wall-clock budget: no NEW calibration run starts after this many
  /// seconds (the default plan is always calibrated first, so a tiny
  /// budget degrades to "default wins", never to an error).
  double time_budget_s = 30.0;
};

/// One evaluated point of the grid.
struct AutotuneCandidate {
  CompiledPlan plan;
  double predicted_ips = 0.0;  // cycle-model oracle
  double measured_ips = 0.0;   // live calibration; 0 = not measured
  bool verified = false;       // verify/ report was ok()
};

struct AutotuneResult {
  /// The winning plan (calibrated_ips/predicted_ips filled in). Equals the
  /// default plan unless some candidate beat it strictly.
  CompiledPlan best;
  double default_ips = 0.0;  // default plan on the deciding metric
  double best_ips = 0.0;     // winner on the same metric (>= default_ips)
  int evaluated = 0;         // candidates that passed verification
  int pruned = 0;            // candidates rejected by verify/
  std::vector<AutotuneCandidate> candidates;  // in evaluation order
};

/// Run the search. Throws qnn::Error only for setup failures (a pipeline
/// that fails verification even with default options);
/// individual bad candidates are pruned, not fatal.
[[nodiscard]] AutotuneResult autotune(const Pipeline& pipeline,
                                      const NetworkParams& params,
                                      const AutotuneConfig& config = {});

}  // namespace qnn
