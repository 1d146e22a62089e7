// Per-layer probes of a traced run: segment replay (dataflow kernels and
// core/simd), standalone link segments, and the set-up analyzer alone.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "core/error.h"
#include "dataflow/engine.h"
#include "dataflow/linked_engine.h"
#include "sim/cycle_model.h"
#include "verify/graph_check.h"

namespace perfbench {
namespace {

/// Images each replayed segment runs per timed call, and timed calls.
constexpr int kReplayImages = 4;
constexpr int kReplayReps = 3;

struct SegmentTime {
  int first = 0;
  int last = 0;
  double ms_per_img = 0.0;
};

/// Run the segments of `cuts` one after another, each alone on a fresh
/// StreamEngine, feeding each the previous segment's outputs.
std::vector<SegmentTime> time_segments(const qnn::Pipeline& pipeline,
                                       const qnn::NetworkParams& params,
                                       const std::vector<int>& cuts,
                                       std::span<const qnn::IntTensor> pool,
                                       const char* span_name, Tracer& tracer) {
  std::vector<int> index;
  std::vector<qnn::IntTensor> inputs = make_batch(pool, kReplayImages, index);
  std::vector<int> lasts = cuts;
  lasts.push_back(pipeline.size() - 1);
  std::vector<SegmentTime> out;
  int first = 0;
  for (int last : lasts) {
    const qnn::PipelineSegment seg =
        qnn::extract_segment(pipeline, params, first, last);
    qnn::StreamEngine engine(seg.pipeline, seg.params);
    (void)engine.run_one(inputs[0]);  // warm-up
    std::vector<double> ms;
    std::vector<qnn::IntTensor> outputs;
    for (int r = 0; r < kReplayReps; ++r) {
      const Clock::time_point t0 = Clock::now();
      outputs = engine.run(inputs);
      const Clock::time_point t1 = Clock::now();
      tracer.span(std::string(span_name) + " " + pipeline.node(last).name,
                  "dataflow+simd", t0, t1, static_cast<std::uint64_t>(last),
                  2);
      ms.push_back(ms_between(t0, t1) / static_cast<double>(inputs.size()));
    }
    out.push_back({first, last, median(ms)});
    inputs = std::move(outputs);
    first = last + 1;
  }
  return out;
}

/// Binary operations of one image through a conv node:
/// 2 * K^2 * I * O * H_out * W_out * in_bits.
double conv_binary_ops(const qnn::Node& n) {
  return 2.0 * n.k * n.k * n.in.c * n.out.c * n.out.h * n.out.w * n.in_bits;
}

}  // namespace

void report_verify(const qnn::Pipeline& pipeline,
                   const qnn::NetworkParams& params, Report& report,
                   Tracer& tracer) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const qnn::Report findings = qnn::verify_graph(pipeline, &params);
    const Clock::time_point t1 = Clock::now();
    tracer.span("verify_graph", "verify", t0, t1,
                static_cast<std::uint64_t>(i), 3);
    if (!findings.ok()) throw qnn::Error("verify_graph rejected the pipeline");
    ms.push_back(ms_between(t0, t1));
  }
  report.add_layer("setup.verify_ms", median(ms), "ms");
}

std::vector<int> chain_cuts(const qnn::Pipeline& pipeline,
                            const qnn::NetworkParams& params) {
  std::vector<int> cuts;
  for (int i = 0; i + 1 < pipeline.size(); ++i) {
    try {
      (void)qnn::extract_segment(pipeline, params, i + 1, pipeline.size() - 1);
      cuts.push_back(i);
    } catch (const qnn::Error&) {
      // A skip edge or a forked main edge crosses this cut.
    }
  }
  return cuts;
}

std::vector<int> linked_cuts(const qnn::Pipeline& pipeline,
                             const qnn::NetworkParams& params, bool tiny) {
  if (!tiny) return {4, 9, 14};
  // A MaxRing link carries one stream (QNN-D422): skip forked boundaries.
  std::vector<int> all;
  for (int c : chain_cuts(pipeline, params)) {
    if (pipeline.consumers(c).size() == 1) all.push_back(c);
  }
  std::vector<int> cuts;
  const std::size_t n = std::min<std::size_t>(3, all.size());
  for (std::size_t k = 0; k < n; ++k) {
    cuts.push_back(all[(k + 1) * all.size() / (n + 1)]);
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

void replay_segments(const qnn::Pipeline& pipeline,
                     const qnn::NetworkParams& params,
                     const std::vector<int>& cuts,
                     std::span<const qnn::IntTensor> pool, double live_img_s,
                     Report& report, Tracer& tracer) {
  const std::vector<SegmentTime> segs =
      time_segments(pipeline, params, cuts, pool, "replay", tracer);
  const qnn::SimConfig sim;
  const auto busy = qnn::analytic_busy_cycles(pipeline, sim);
  double total_busy = 0.0;
  for (const auto& [name, cycles] : busy) {
    total_busy += static_cast<double>(cycles);
  }
  double sum_ms = 0.0;
  const SegmentTime* slowest = &segs.front();
  for (const SegmentTime& s : segs) {
    sum_ms += s.ms_per_img;
    if (s.ms_per_img > slowest->ms_per_img) slowest = &s;
  }

  report.notes.push_back(
      "segment replay (measured share | modeled share from "
      "analytic_busy_cycles | live / modeled rate at 105 MHz):");
  for (const SegmentTime& s : segs) {
    const qnn::Node& last = pipeline.node(s.last);
    double seg_busy = 0.0;
    double seg_max = 0.0;
    for (int i = s.first; i <= s.last; ++i) {
      const auto c =
          static_cast<double>(busy[static_cast<std::size_t>(i)].second);
      seg_busy += c;
      seg_max = std::max(seg_max, c);
    }
    const double live_rate = 1e3 / s.ms_per_img;
    const double model_rate = seg_max > 0.0 ? sim.clock_hz / seg_max : 0.0;
    char row[200];
    std::snprintf(row, sizeof row,
                  "  nodes %2d..%2d %-12s %9.3f ms/img  %5.1f%% | %5.1f%% | "
                  "%.4f",
                  s.first, s.last, last.name.c_str(), s.ms_per_img,
                  100.0 * s.ms_per_img / sum_ms,
                  100.0 * seg_busy / total_busy,
                  model_rate > 0.0 ? live_rate / model_rate : 0.0);
    report.notes.push_back(row);
    report.add_layer("layer." + last.name + ".ms_per_img", s.ms_per_img,
                     "ms");
    if (s.first == s.last && last.kind == qnn::NodeKind::Conv) {
      report.add_layer("layer." + last.name + ".gop_s",
                       conv_binary_ops(last) / (s.ms_per_img * 1e6), "GOP/s");
    }
  }
  const double stage_bound = 1e3 / slowest->ms_per_img;
  const double core_bound = static_cast<double>(host_cores()) * 1e3 / sum_ms;
  report.add_layer("kernels.stage_bound_img_s", stage_bound, "img/s");
  report.add_layer("kernels.core_bound_img_s", core_bound, "img/s");
  report.add_layer("kernels.overlap_eff",
                   live_img_s / std::min(stage_bound, core_bound), "ratio");
  report.notes.push_back("kernels.bottleneck: " +
                         pipeline.node(slowest->last).name);
}

void report_link_segments(const qnn::Pipeline& pipeline,
                          const qnn::NetworkParams& params,
                          const std::vector<int>& cuts,
                          std::span<const qnn::IntTensor> pool, Report& report,
                          Tracer& tracer) {
  const std::vector<SegmentTime> segs =
      time_segments(pipeline, params, cuts, pool, "link segment", tracer);
  for (std::size_t k = 0; k < segs.size(); ++k) {
    report.add_layer("link.seg" + std::to_string(k) + ".ms_per_img",
                     segs[k].ms_per_img, "ms");
  }
}

double fresh_fill_ms(const qnn::Pipeline& pipeline,
                     const qnn::NetworkParams& params,
                     const qnn::IntTensor& image, Tracer& tracer) {
  qnn::StreamEngine engine(pipeline, params);
  (void)engine.run_one(image);
  return fill_ms(engine, image, tracer);
}

}  // namespace perfbench
