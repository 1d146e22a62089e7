// Microbenchmarks (google-benchmark) of the hot computational primitives:
// the XNOR-popcount datapath vs a scalar reference, the folded threshold
// activation vs the float BatchNorm + quantizer path, the window scanner,
// the SPSC stream, and a small end-to-end streaming inference.
//
// After the google-benchmark suite, main() runs the host-executor
// ablation: ready-queue vs ready-queue + pinned workers at equal thread
// counts, on a shallow (8-kernel) and a deep (>= 50-kernel) chain. Results
// land in $QNN_CSV_DIR/BENCH_executor.json (written only when QNN_CSV_DIR
// is set, like every BENCH file) with the host fingerprint; `PERF=1
// tools/check.sh` holds the fresh ready-queue rates to the committed file
// on the same host. Pass
// `--benchmark_filter=__none__` to skip the microbenchmarks and run the
// ablation alone, or `--conv-datapath-only` for the conv ablation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.h"
#include "bench_util.h"
#include "core/bitplanes.h"
#include "core/bitvector.h"
#include "core/simd/vec_ops.h"
#include "dataflow/engine.h"
#include "dataflow/kernels.h"
#include "dataflow/window_scanner.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "quant/threshold.h"

namespace qnn {
namespace {

void BM_Pm1DotPacked(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  BitVector a(n);
  BitVector b(n);
  for (std::int64_t i = 0; i < n; ++i) {
    a.set(i, rng.next_bool());
    b.set(i, rng.next_bool());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.pm1_dot(b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Pm1DotPacked)->Arg(576)->Arg(4608)->Arg(9216);

void BM_Pm1DotScalarReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::int8_t> w(n);
  std::vector<std::int32_t> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.next_bool() ? 1 : -1;
    x[i] = static_cast<std::int32_t>(rng.next_below(4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_pm1_dot(w, x));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Pm1DotScalarReference)->Arg(576)->Arg(4608)->Arg(9216);

void BM_ThresholdEval(benchmark::State& state) {
  BnParams bn;
  bn.gamma = 1.2f;
  bn.mu = 40.0f;
  bn.inv_sigma = 0.01f;
  bn.beta = 2.0f;
  const ActQuantizer q(static_cast<int>(state.range(0)), 1.0);
  const auto t = ThresholdActivation::fold(bn, q);
  std::int32_t a = -5000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.eval_binary_search(a));
    a = a < 5000 ? a + 7 : -5000;
  }
}
BENCHMARK(BM_ThresholdEval)->Arg(1)->Arg(2)->Arg(4);

void BM_FloatBnActPath(benchmark::State& state) {
  BnParams bn;
  bn.gamma = 1.2f;
  bn.mu = 40.0f;
  bn.inv_sigma = 0.01f;
  bn.beta = 2.0f;
  const ActQuantizer q(static_cast<int>(state.range(0)), 1.0);
  std::int32_t a = -5000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.code(bn.apply(a)));
    a = a < 5000 ? a + 7 : -5000;
  }
}
BENCHMARK(BM_FloatBnActPath)->Arg(1)->Arg(2)->Arg(4);

void BM_WindowScanner(benchmark::State& state) {
  const Shape in{32, 32, 64};
  Rng rng(3);
  IntTensor img(in);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::int32_t>(rng.next_below(4));
  }
  for (auto _ : state) {
    WindowScanner s(in, 3, 1, 1);
    PixelRing ring(s);
    std::int64_t next = 0;
    while (!s.done()) {
      const std::int32_t v = s.next_is_padding() ? 0 : img[next++];
      ring.store(s, std::span<const std::int32_t>(&v, 1), 1);
      const auto completed = s.advance();
      if (completed) {
        benchmark::DoNotOptimize(ring.pixel(completed->oy, completed->ox));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * img.size());
}
BENCHMARK(BM_WindowScanner);

void BM_StreamThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Stream s(1024, 16, "bench");
    const std::int64_t n = 1 << 18;
    state.ResumeTiming();
    std::thread consumer([&] {
      std::int32_t v = 0;
      for (;;) {
        if (s.try_pop_burst({&v, 1}) == 1) {
          benchmark::DoNotOptimize(v);
        } else if (s.drained()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
    for (std::int32_t i = 0; i < n; ++i) {
      while (s.try_push_burst({&i, 1}) == 0) std::this_thread::yield();
    }
    s.close();
    consumer.join();
    state.SetItemsProcessed(state.items_processed() + n);
  }
}
BENCHMARK(BM_StreamThroughput)->Unit(benchmark::kMillisecond);

void BM_StreamingEngineTiny(benchmark::State& state) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 99);
  StreamEngine engine(p, params);
  Rng rng(4);
  IntTensor img(p.input);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::int32_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_one(img));
  }
}
BENCHMARK(BM_StreamingEngineTiny)->Unit(benchmark::kMillisecond);

void BM_ReferenceExecutorTiny(benchmark::State& state) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 99);
  const ReferenceExecutor exec(p, params);
  Rng rng(4);
  IntTensor img(p.input);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::int32_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.run(img));
  }
}
BENCHMARK(BM_ReferenceExecutorTiny)->Unit(benchmark::kMillisecond);

}  // namespace

// ---- executor ablation --------------------------------------------------

namespace {

using bench::host_json;

/// A straight chain of `convs` (conv + bnact) pairs plus a dense head:
/// 2*convs + 1 + (bn_act ? 1 : 0) nodes once expanded, each conv + bnact
/// pair (the head's too) run as one kernel, the conv's port evaluating
/// the BnAct. convs=3 with a bn-act head gives the shallow 8-node chain
/// of 4 kernels; convs=26 without gives the deep 53-node chain of 27
/// kernels, where only a few kernels are runnable at once.
NetworkSpec ablation_chain(const char* name, int convs, bool dense_bn) {
  NetworkSpec spec;
  spec.name = name;
  spec.input = Shape{8, 8, 2};
  for (int i = 0; i < convs; ++i) spec.conv(2, 3, 1, 1);
  spec.dense(3, dense_bn);
  return spec;
}

struct AblationConfig {
  const char* label;
  bool pin;
};

/// Images/second for one (chain, config) cell: the best of three timed
/// windows of at least 0.2 s each (interference only ever slows a window
/// down). Every config sees the same requests, the same thread count, and
/// the same (adaptive) burst plan — pinning is the only variable.
double ablation_ips(const Pipeline& p, const NetworkParams& params,
                    const AblationConfig& cfg, unsigned threads,
                    const std::vector<std::vector<IntTensor>>& requests) {
  EngineOptions opt;
  opt.pool_threads = threads;
  opt.pin_threads = cfg.pin;
  StreamEngine engine(p, params, opt);
  (void)engine.run(requests.front());  // warm-up, untimed
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    int images = 0;
    const auto t0 = std::chrono::steady_clock::now();
    std::chrono::duration<double> elapsed{0.0};
    while (elapsed.count() < 0.2) {
      for (const auto& request : requests) {
        (void)engine.run(request);
        images += static_cast<int>(request.size());
      }
      elapsed = std::chrono::steady_clock::now() - t0;
    }
    best = std::max(best, images / elapsed.count());
  }
  return best;
}

}  // namespace

int run_executor_ablation() {
  const AblationConfig configs[] = {
      {"ready-queue", false},
      {"ready-queue + pinned", true},
  };
  struct Chain {
    const char* name;
    NetworkSpec spec;
  };
  const Chain chains[] = {
      {"shallow", ablation_chain("shallow_chain", 3, true)},
      {"deep", ablation_chain("deep_chain", 26, false)},
  };

  std::ostringstream js;
  js << "{\n  \"host\": " << host_json() << ",\n  \"chains\": [\n";
  double ready_ips[2] = {0.0, 0.0};
  std::cout << "\nexecutor ablation (one worker per task, adaptive "
               "bursts)\n";
  for (std::size_t c = 0; c < std::size(chains); ++c) {
    const Chain& chain = chains[c];
    const Pipeline p = expand(chain.spec);
    const NetworkParams params = NetworkParams::random(p, 7);
    // Pool size = node count + 2 (feeder + collector): at least one
    // worker per task, the natural host configuration for a dataflow
    // graph, where every kernel could be live at once. The awake limit
    // keeps the surplus parked.
    const unsigned threads = static_cast<unsigned>(p.size()) + 2;
    Rng rng(11);
    // Serving-shaped requests: one image per run() call, as the serve/
    // replicas issue them. This exposes the per-run host overhead (waking
    // the parked pool, filling and draining the pipeline) on top of
    // steady-state scheduling.
    std::vector<std::vector<IntTensor>> requests;
    for (int i = 0; i < 4; ++i) {
      IntTensor img(p.input);
      for (std::int64_t j = 0; j < img.size(); ++j) {
        img[j] = static_cast<std::int32_t>(
            rng.next_below(1u << chain.spec.input_bits));
      }
      requests.push_back({std::move(img)});
    }
    const int kernels = StreamEngine(p, params).kernel_count();
    js << "    {\"chain\": \"" << chain.name << "\", \"nodes\": " << p.size()
       << ", \"kernels\": " << kernels << ", \"threads\": " << threads
       << ", \"configs\": [\n";
    for (std::size_t i = 0; i < std::size(configs); ++i) {
      const AblationConfig& cfg = configs[i];
      const double ips = ablation_ips(p, params, cfg, threads, requests);
      if (!cfg.pin) ready_ips[c] = ips;
      const double speedup = ready_ips[c] > 0.0 ? ips / ready_ips[c] : 0.0;
      std::cout << "  " << chain.name << " (" << p.size() << " nodes, "
                << kernels << " kernels, "
                << threads << " threads), " << cfg.label << ": " << ips
                << " images/s (" << speedup << "x vs unpinned)\n";
      js << "      {\"label\": \"" << cfg.label << "\", \"pinned\": "
         << (cfg.pin ? "true" : "false")
         << ", \"images_per_second\": " << ips
         << ", \"speedup_vs_unpinned\": " << speedup << "}"
         << (i + 1 < std::size(configs) ? "," : "") << "\n";
    }
    js << "    ]}" << (c + 1 < std::size(chains) ? "," : "") << "\n";
  }
  js << "  ],\n  \"shallow_ready_ips\": " << ready_ips[0]
     << ",\n  \"deep_ready_ips\": " << ready_ips[1] << "\n}\n";
  std::cout << js.str();
  bench::write_json("BENCH_executor.json", js.str());
  return ready_ips[0] > 0.0 && ready_ips[1] > 0.0 ? 0 : 1;
}

// ---- conv datapath ablation ---------------------------------------------

namespace {

/// Images/second through a single ConvKernel driven cooperatively on one
/// thread (push burst / step / drain), so the measurement isolates the conv
/// inner datapath with no executor or thread-scheduling noise. The kernel
/// pops one input row per burst, the transaction the engine's default
/// (adaptive) plan gives every edge, so a row's windows pair as they do in
/// the engine.
double conv_datapath_ips(const Node& n, const FilterBank& fb,
                         const std::vector<std::int32_t>& img, int images) {
  Stream sin(8192, 16, "abl_in");
  Stream sout(8192, 32, "abl_out");
  ConvKernel kernel(n, fb, sin, {&sout},
                    static_cast<std::size_t>(n.in.w) *
                        static_cast<std::size_t>(n.in.c));
  const std::int64_t out_per_image = n.out.elems();
  std::vector<std::int32_t> sink(4096);
  const auto t0 = std::chrono::steady_clock::now();
  int fed_images = 0;
  std::size_t fed_pos = 0;
  std::int64_t got = 0;
  while (got < out_per_image * images) {
    if (fed_images < images) {
      fed_pos += sin.try_push_burst(
          std::span<const std::int32_t>(img).subspan(fed_pos));
      if (fed_pos == img.size()) {
        fed_pos = 0;
        if (++fed_images == images) sin.close();
      }
    }
    (void)kernel.step_checked();
    got += static_cast<std::int64_t>(sout.try_pop_burst(sink));
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  return images / elapsed.count();
}

}  // namespace

/// Two-arm ablation of the conv inner datapath — packed incremental line
/// buffers with the scalar loops (the scalar word loop of the bit-plane
/// path, the scalar byte dot of the byte path) vs the same with the widest
/// SIMD level — per cell, best of five timed runs of 8 images per arm. Writes
/// BENCH_kernels.json; with AVX2 or wider the exit code enforces a >= 2x
/// geomean SIMD speedup, without it there is no bar.
int run_conv_datapath_ablation() {
  // Best of kReps short runs, the reps sweeping every cell and arm in turn:
  // on a shared host a short run can land in a quiet interval, and
  // spreading each cell's runs over the whole ablation keeps one noisy
  // spell from owning all of them.
  constexpr int kImages = 8;
  constexpr int kReps = 5;
  struct Cell {
    const char* name;
    Shape in;
    int out_c;
    int k;
    int stride;
    int pad;
    int bits;
  };
  // A mid-network conv at paper scale: 3x3x64 -> 64 puts 576 values in
  // each window, enough for the inner loops to matter, at four activation
  // widths: 1 and 2 bits run the bit-plane path (9-word planes), 4 and 8
  // bits the byte path (144 quads). The conv_0 cells are the 8-bit input
  // layers on smaller maps, byte path: ResNet-18's (7x7x3 -> 64, stride
  // 2, pad 3; 147 values per window) and VGG's (3x3x3 -> 64; 27 values) —
  // the short-window cases where per-filter overheads dominate. The
  // 3x3x256 -> 256 cell on an 8x8 map is the deep 2-bit layer (VGG
  // conv_12, ResNet-18 conv_24..conv_32 geometry): 36-word planes and a
  // 73 KB weight bank, larger than L1. The 3x3x512 -> 512 cell on a 7x7 map
  // is ResNet-18's stage 4: 72-word planes and a 295 KB bank streamed once
  // per pair of windows. Tiny-channel layers are covered by the test suite.
  const Cell cells[] = {
      {"3x3x64-64_b1", {16, 16, 64}, 64, 3, 1, 1, 1},
      {"3x3x64-64_b2", {16, 16, 64}, 64, 3, 1, 1, 2},
      {"3x3x64-64_b4", {16, 16, 64}, 64, 3, 1, 1, 4},
      {"3x3x64-64_b8", {16, 16, 64}, 64, 3, 1, 1, 8},
      {"conv_0_7x7x3-64_s2_b8", {64, 64, 3}, 64, 7, 2, 3, 8},
      {"conv_0_3x3x3-64_b8", {32, 32, 3}, 64, 3, 1, 1, 8},
      {"3x3x256-256_b2", {8, 8, 256}, 256, 3, 1, 1, 2},
      {"3x3x512-512_b2", {7, 7, 512}, 512, 3, 1, 1, 2},
  };
  constexpr std::size_t kCells = std::size(cells);

  const simd::Level best = simd::available_levels().back();
  const bool has_bar = best >= simd::Level::kAvx2;
  const double bar = has_bar ? 2.0 : 0.0;

  struct Arm {
    const char* label;
    simd::Level level;
  };
  const Arm arms[] = {
      {"packed", simd::Level::kScalar},
      {"packed+simd", best},
  };

  struct Input {
    Node node;
    FilterBank weights;
    std::vector<std::int32_t> image;
  };
  std::vector<Input> inputs;
  for (std::size_t c = 0; c < kCells; ++c) {
    const Cell& cell = cells[c];
    Node n;
    n.kind = NodeKind::Conv;
    n.name = "abl_conv";
    n.in = cell.in;
    n.out = conv_out_shape(cell.in, cell.out_c, cell.k, cell.stride, cell.pad);
    n.in_bits = cell.bits;
    n.out_bits = preact_bits(std::int64_t{cell.k} * cell.k * cell.in.c,
                             cell.bits);
    n.k = cell.k;
    n.stride = cell.stride;
    n.pad = cell.pad;
    n.param = 0;
    Rng rng(21 + static_cast<std::uint64_t>(c));
    FilterBank fb = FilterBank::random(n.filter_shape(), rng);
    std::vector<std::int32_t> img(static_cast<std::size_t>(cell.in.elems()));
    for (auto& v : img) {
      v = static_cast<std::int32_t>(
          rng.next_below(std::uint64_t{1} << cell.bits));
    }
    inputs.push_back({n, std::move(fb), std::move(img)});
  }

  std::cout << "\nconv datapath ablation (single kernel, cooperative "
               "single-thread drive; host best simd: "
            << simd::level_name(best) << ")\n";
  double ips[kCells][2] = {};
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1: untimed warm-up
    for (std::size_t c = 0; c < kCells; ++c) {
      const Input& in = inputs[c];
      for (std::size_t a = 0; a < std::size(arms); ++a) {
        simd::set_level(arms[a].level);
        const double r = conv_datapath_ips(in.node, in.weights, in.image,
                                           rep < 0 ? 2 : kImages);
        if (rep >= 0) ips[c][a] = std::max(ips[c][a], r);
      }
    }
  }
  std::ostringstream js;
  js << "{\n  \"host\": " << host_json() << ",\n  \"bar\": " << bar
     << ",\n  \"cells\": [\n";
  double log_sum = 0.0;
  for (std::size_t c = 0; c < kCells; ++c) {
    for (std::size_t a = 0; a < std::size(arms); ++a) {
      std::cout << "  " << cells[c].name << ", " << arms[a].label << ": "
                << ips[c][a] << " images/s\n";
    }
    const double simd_ratio = ips[c][1] / ips[c][0];
    log_sum += std::log(simd_ratio);
    js << "    {\"cell\": \"" << cells[c].name
       << "\", \"in_bits\": " << cells[c].bits
       << ", \"packed_scalar_ips\": " << ips[c][0]
       << ", \"packed_simd_ips\": " << ips[c][1]
       << ", \"simd_vs_packed\": " << simd_ratio << "}"
       << (c + 1 < kCells ? "," : "") << "\n";
  }
  simd::set_level(std::nullopt);
  const double geomean =
      std::exp(log_sum / static_cast<double>(kCells));
  const bool pass = !has_bar || geomean >= bar;
  js << "  ],\n  \"geomean_simd_vs_packed\": " << geomean
     << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "packed+simd vs packed (scalar words) geomean: " << geomean
            << "x (bar: " << (has_bar ? ">= 2" : "none without AVX2")
            << ")\n"
            << js.str();
  bench::write_json("BENCH_kernels.json", js.str());
  return pass ? 0 : 1;
}

}  // namespace qnn

int main(int argc, char** argv) {
  // --conv-datapath-only: skip the microbenchmarks and the executor
  // ablation, run just the conv datapath ablation (PERF=1 tools/check.sh
  // replays its committed BENCH_kernels.json baseline against this).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--conv-datapath-only") == 0) {
      return qnn::run_conv_datapath_ablation();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return qnn::run_executor_ablation();
}
