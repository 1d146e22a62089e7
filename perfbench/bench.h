// Shared plumbing of the end-to-end benchmark: options, the metric report,
// in-memory span tracing, sample statistics and process counters.
//
// The benchmark drives the public API only (StreamEngine, DfeServer,
// LinkedEngine); every span is recorded here, around the benchmark's own
// calls into a layer, never inside the program under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "nn/params.h"
#include "nn/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Images per run() call of a batch workload; 0 keeps the workload's
  /// default (README.md records the sweep that chose it).
  int batch = 0;
  /// Swap the paper networks for models::tiny (the smoke test).
  bool tiny = false;
  /// Flip one bit of the first logged output, to prove the correctness
  /// gate trips (the smoke test).
  bool corrupt = false;
  /// Chrome trace-event file written at the end of a traced run.
  std::string trace_out;
};

/// Every number one run measured. `e2e` holds the end-to-end metrics,
/// `layer` the per-layer ones (traced runs only); both keep print order.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;  // human-readable table rows
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add_e2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] double e2e_value(const std::string& name) const;
};

/// Spans kept in memory and written once, as Chrome trace-event JSON
/// (viewable offline in chrome://tracing or Perfetto). Disabled tracers
/// record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// One complete span; spans of one request share `id`, `lane` is the
  /// trace-viewer row.
  void span(const std::string& name, const std::string& layer,
            Clock::time_point start, Clock::time_point end,
            std::uint64_t id = 0, int lane = 0);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Write every span; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start_us;
    double dur_us;
    std::uint64_t id;
    int lane;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- statistics ----------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
/// Sorts a copy, so +inf entries (failed requests) rank last.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

// ---- process counters ----------------------------------------------------

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();
/// User + system CPU time this process has used, ms.
[[nodiscard]] double process_cpu_ms();
[[nodiscard]] unsigned host_cores();

/// Core time of the whole host (from /proc/stat) and of this process,
/// summed since boot, at one instant.
struct HostSample {
  double all_ms = 0.0;    // every core's time, idle included
  double taken_ms = 0.0;  // busy in any process, or stolen by the hypervisor
  double own_ms = 0.0;    // this process
};
[[nodiscard]] HostSample host_sample();
/// Share of the host's core time between `a` and `b` that went to anything
/// but this process: other processes and hypervisor steal. 0 when
/// /proc/stat is unreadable.
[[nodiscard]] double host_contention(const HostSample& a, const HostSample& b);

// ---- inputs and the correctness gate -------------------------------------

/// `n` distinct 8-bit images for `pipeline`, drawn from `seed`.
[[nodiscard]] std::vector<qnn::IntTensor> make_images(
    const qnn::Pipeline& pipeline, int n, std::uint64_t seed);

/// Every output of a run, by the pool image it came from, for the check
/// against ReferenceExecutor after timing ends. Each distinct output of an
/// image is kept once, with a count: every arrival is compared bit-exactly
/// with the kept ones, so the log's memory does not grow with the number
/// of images run and peak RSS stays a measure of the runtime.
class OutputLog {
 public:
  explicit OutputLog(bool corrupt) : corrupt_(corrupt) {}

  void add(int image, qnn::IntTensor out);
  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// Outputs unlike `expected(image)`, the reference output of a pool
  /// image (called once per image that has outputs).
  template <class Expected>
  [[nodiscard]] std::uint64_t mismatches(Expected expected) const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < images_.size(); ++i) {
      if (images_[i].empty()) continue;
      const qnn::IntTensor ref = expected(i);
      for (const Variant& v : images_[i]) {
        if (!(v.output == ref)) n += v.count;
      }
    }
    return n;
  }

 private:
  struct Variant {
    qnn::IntTensor output;
    std::uint64_t count = 0;
  };
  bool corrupt_;
  std::uint64_t size_ = 0;
  std::vector<std::vector<Variant>> images_;  // by pool slot
};

/// Compare every logged output bit-exactly with ReferenceExecutor::run on
/// its image (one reference run per distinct image); returns the number
/// of mismatches.
[[nodiscard]] std::uint64_t check_outputs(const qnn::Pipeline& pipeline,
                                          const qnn::NetworkParams& params,
                                          std::span<const qnn::IntTensor> pool,
                                          const OutputLog& log);

// ---- workloads (workloads.cpp) -------------------------------------------

void run_resnet18_batch(const Options& opt, Report& report, Tracer& tracer);
void run_vgg32_open(const Options& opt, Report& report, Tracer& tracer);
void run_vgg32_linked(const Options& opt, Report& report, Tracer& tracer);

/// `size` images cycled from `pool`; `index` receives each one's pool slot.
[[nodiscard]] std::vector<qnn::IntTensor> make_batch(
    std::span<const qnn::IntTensor> pool, int size, std::vector<int>& index);

// ---- per-layer probes of traced runs (layers.cpp) ------------------------

/// setup.verify_ms: the static analyzer run alone on `pipeline`.
void report_verify(const qnn::Pipeline& pipeline,
                   const qnn::NetworkParams& params, Report& report,
                   Tracer& tracer);

/// Every cut `extract_segment` accepts (the chain-valid cut points).
[[nodiscard]] std::vector<int> chain_cuts(const qnn::Pipeline& pipeline,
                                          const qnn::NetworkParams& params);

/// The vgg32_linked cut: after the three maxpools {4, 9, 14} of VGG-32, or
/// up to three evenly spaced chain cuts of the smoke-test network.
[[nodiscard]] std::vector<int> linked_cuts(const qnn::Pipeline& pipeline,
                                           const qnn::NetworkParams& params,
                                           bool tiny);

/// Segment replay: cut `pipeline` after each node in `cuts`, run every
/// segment alone on a fresh StreamEngine fed the previous segment's real
/// output, and report layer.<last node>.ms_per_img (+ gop_s for single-conv
/// segments), the stage and core bounds, overlap efficiency against
/// `live_img_s` and the bottleneck, next to the modeled shares.
void replay_segments(const qnn::Pipeline& pipeline,
                     const qnn::NetworkParams& params,
                     const std::vector<int>& cuts,
                     std::span<const qnn::IntTensor> pool, double live_img_s,
                     Report& report, Tracer& tracer);

/// link.seg<k>.ms_per_img: each segment of the linked cut run standalone.
void report_link_segments(const qnn::Pipeline& pipeline,
                          const qnn::NetworkParams& params,
                          const std::vector<int>& cuts,
                          std::span<const qnn::IntTensor> pool, Report& report,
                          Tracer& tracer);

/// Median run_one latency of a warm engine, ms (engine.fill_ms).
template <class Engine>
[[nodiscard]] double fill_ms(Engine& engine, const qnn::IntTensor& image,
                             Tracer& tracer) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)engine.run_one(image);
    const Clock::time_point t1 = Clock::now();
    tracer.span("engine.run_one", "dataflow", t0, t1,
                static_cast<std::uint64_t>(i), 1);
    ms.push_back(ms_between(t0, t1));
  }
  return median(ms);
}

/// fill_ms of a fresh, warmed StreamEngine on `pipeline`.
[[nodiscard]] double fresh_fill_ms(const qnn::Pipeline& pipeline,
                                   const qnn::NetworkParams& params,
                                   const qnn::IntTensor& image,
                                   Tracer& tracer);

}  // namespace perfbench
