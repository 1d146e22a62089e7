#include "plan/autotune.h"

#include <algorithm>
#include <chrono>

#include "backend/backend.h"
#include "core/error.h"
#include "io/synthetic.h"
#include "sim/cycle_model.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// EngineOptions for one grid point, derived from the defaults.
EngineOptions grid_options(std::size_t burst, bool adaptive,
                           std::size_t fifo_capacity) {
  EngineOptions opts;
  opts.burst = burst;
  opts.adaptive_burst = adaptive;
  opts.fifo_capacity = fifo_capacity;
  return opts;
}

/// Same knobs the grid sweeps — used to drop duplicates of the default.
bool same_point(const EngineOptions& a, const EngineOptions& b) {
  return a.burst == b.burst && a.adaptive_burst == b.adaptive_burst &&
         a.fifo_capacity == b.fifo_capacity;
}

/// Cycle-model oracle: steady-state throughput with the plan's per-edge
/// bursts and cut carried into the MaxRing serializer.
double predict_ips(const Pipeline& pipeline, const CompiledPlan& plan) {
  SimConfig sim;
  plan.apply_sim(sim);
  return simulate(pipeline, sim).images_per_second(sim);
}

/// Timed runs of `images` on a freshly compiled session; best-of-repeats
/// throughput (the max discards one-sided scheduling interference, which
/// is all that differs between repeats on a quiet machine).
double calibrate_ips(const Backend& backend, const Pipeline& pipeline,
                     const NetworkParams& params, const CompiledPlan& plan,
                     const AutotuneConfig& config,
                     const std::vector<IntTensor>& images) {
  EngineOptions opts;
  plan.apply_engine(opts);
  opts.plan = &plan;  // plan outlives the session (stack of the caller)
  const auto session = backend.compile(pipeline, params, opts);
  (void)session->infer(images.front());  // warm-up, excluded from timing
  // Micro-batch size: an SLO-tuned plan is scored the way an SLO server
  // runs it — small batches, spin-up paid per run.
  std::size_t micro = static_cast<std::size_t>(
      std::max(0, config.calibration_micro_batch));
  if (micro == 0) micro = config.slo_us > 0 ? 4 : images.size();
  std::vector<std::vector<IntTensor>> chunks;  // sliced outside the timing
  for (std::size_t i = 0; i < images.size(); i += micro) {
    chunks.emplace_back(
        images.begin() + static_cast<std::ptrdiff_t>(i),
        images.begin() + static_cast<std::ptrdiff_t>(
                             std::min(images.size(), i + micro)));
  }
  double best = 0.0;
  for (int r = 0; r < kCalibrationRepeats; ++r) {
    const auto start = Clock::now();
    for (const std::vector<IntTensor>& chunk : chunks) {
      (void)session->infer_batch(chunk);
    }
    const double elapsed = seconds_since(start);
    if (elapsed > 0) {
      best = std::max(best, static_cast<double>(images.size()) / elapsed);
    }
  }
  return best;
}

}  // namespace

AutotuneResult autotune(const Pipeline& pipeline, const NetworkParams& params,
                        const AutotuneConfig& config) {
  const auto start = Clock::now();
  const Backend& backend = backend_registry().at(config.backend);

  // Candidate 0: the default plan — what the engine would decide on its
  // own. It must verify; a model that fails with default options is not a
  // tuning problem.
  const EngineOptions default_opts;
  AutotuneCandidate def;
  def.plan =
      compile_plan(pipeline, default_opts, config.slo_us, config.backend);
  {
    EngineOptions verify_opts = default_opts;
    verify_opts.plan = &def.plan;
    enforce(verify_graph(pipeline, &params, verify_opts), "autotune");
  }
  def.verified = true;
  def.predicted_ips = predict_ips(pipeline, def.plan);
  def.plan.predicted_ips = def.predicted_ips;

  AutotuneResult result;
  result.candidates.push_back(def);

  // The grid. Every candidate is verified through verify/ before it is
  // allowed anywhere near a live run.
  std::vector<std::size_t> fifo_capacities = config.fifo_capacities;
  if (fifo_capacities.empty()) {
    fifo_capacities.push_back(default_opts.fifo_capacity);
  }
  std::vector<EngineOptions> grid;
  for (const std::size_t burst : config.bursts) {
    for (const bool adaptive : {true, false}) {
      for (const std::size_t fifo_capacity : fifo_capacities) {
        grid.push_back(grid_options(burst, adaptive, fifo_capacity));
      }
    }
  }
  for (const EngineOptions& opts : grid) {
    if (same_point(opts, default_opts)) continue;
    AutotuneCandidate c;
    c.plan = compile_plan(pipeline, opts, config.slo_us, config.backend);
    EngineOptions verify_opts = opts;
    verify_opts.plan = &c.plan;
    const Report report = verify_graph(pipeline, &params, verify_opts);
    if (!report.ok()) {
      ++result.pruned;
      result.candidates.push_back(std::move(c));
      continue;
    }
    c.verified = true;
    c.predicted_ips = predict_ips(pipeline, c.plan);
    c.plan.predicted_ips = c.predicted_ips;
    result.candidates.push_back(std::move(c));
  }
  result.evaluated = static_cast<int>(std::count_if(
      result.candidates.begin(), result.candidates.end(),
      [](const AutotuneCandidate& c) { return c.verified; }));

  // Rank the verified non-default candidates by the cheap oracle; the
  // stable sort keeps grid order among predictions that tie.
  std::vector<std::size_t> order;
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    if (result.candidates[i].verified) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return result.candidates[a].predicted_ips >
                            result.candidates[b].predicted_ips;
                   });
  if (order.size() > static_cast<std::size_t>(kCalibrateTop)) {
    order.resize(static_cast<std::size_t>(kCalibrateTop));
  }

  std::size_t best_index = 0;  // the default, until strictly beaten
  if (config.live_calibration) {
    const std::vector<IntTensor> images = synthetic_batch(
        kCalibrationImages, pipeline.input.h, pipeline.input.w,
        pipeline.input.c, config.seed);
    // The default is ALWAYS calibrated, budget or not: a baseline-free
    // result could report a winner that was never compared to anything.
    AutotuneCandidate& d = result.candidates[0];
    d.measured_ips =
        calibrate_ips(backend, pipeline, params, d.plan, config, images);
    result.default_ips = d.measured_ips;
    result.best_ips = d.measured_ips;
    for (const std::size_t i : order) {
      if (seconds_since(start) > config.time_budget_s) break;
      AutotuneCandidate& c = result.candidates[i];
      c.measured_ips =
          calibrate_ips(backend, pipeline, params, c.plan, config, images);
      if (c.measured_ips > result.best_ips) {
        result.best_ips = c.measured_ips;
        best_index = i;
      }
    }
  } else {
    result.default_ips = result.candidates[0].predicted_ips;
    result.best_ips = result.default_ips;
    for (const std::size_t i : order) {
      if (result.candidates[i].predicted_ips > result.best_ips) {
        result.best_ips = result.candidates[i].predicted_ips;
        best_index = i;
      }
    }
  }

  result.best = result.candidates[best_index].plan;
  result.best.calibrated_ips = result.candidates[best_index].measured_ips;
  return result;
}

}  // namespace qnn
