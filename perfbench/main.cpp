// perfbench: end-to-end benchmark of the streaming QNN runtime.
//
//   perfbench --workload <resnet18_batch|vgg32_open|vgg32_linked>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--batch <n>] [--model tiny] [--corrupt]
//             [--trace-out <file.json>]
//
// Prints a human-readable table (host fingerprint, every metric with its
// unit), then one JSON line as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exit code 0 iff every output matched the
// reference executor bit-exactly and nothing failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "core/simd/vec_ops.h"

namespace {

using perfbench::Options;
using perfbench::Report;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--batch" && has_value) {
      opt.batch = std::stoi(argv[++i]);
    } else if (a == "--model" && has_value) {
      const std::string m = argv[++i];
      if (m != "tiny" && m != "paper") return false;
      opt.tiny = m == "tiny";
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0.0 && opt.batch >= 0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Report::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Report::Metric>& ms) {
  if (ms.empty()) return;
  std::printf("%s\n", title);
  for (const Report::Metric& m : ms) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from an unoptimised "
               "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--batch <n>] [--model tiny] "
                   "[--corrupt] [--trace-out <file>]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }
  // A plan cache named by the environment would make set-up depend on
  // state outside the run; every run compiles from scratch.
  unsetenv("QNN_PLAN_CACHE");

  std::printf(
      "# host {\"nproc\": %u, \"simd\": \"%s\", \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"model\": \"%s\", \"batch\": %d}\n",
      perfbench::host_cores(), qnn::simd::vec_ops().name, __VERSION__,
      PERFBENCH_BUILD_TYPE, opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, opt.tiny ? "tiny" : "paper", opt.batch);
  std::fflush(stdout);

  Report report;
  perfbench::Tracer tracer(opt.trace);
  try {
    if (opt.workload == "resnet18_batch") {
      perfbench::run_resnet18_batch(opt, report, tracer);
    } else if (opt.workload == "vgg32_open") {
      perfbench::run_vgg32_open(opt, report, tracer);
    } else if (opt.workload == "vgg32_linked") {
      perfbench::run_vgg32_linked(opt, report, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& row : report.notes) std::printf("%s\n", row.c_str());
  print_table("end-to-end metrics:", report.e2e);
  print_table("per-layer metrics:", report.layer);
  std::printf("  %-36s %14llu count\n  %-36s %14llu count\n", "ops",
              static_cast<unsigned long long>(report.attempted), "ops_failed",
              static_cast<unsigned long long>(report.failed));
  if (tracer.enabled() && !opt.trace_out.empty()) {
    if (!tracer.write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", tracer.size(),
                opt.trace_out.c_str());
  }
  const bool ok = report.correct && report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_metrics(opt.trace ? report.layer : report.e2e).c_str());
  return ok ? 0 : 1;
}
