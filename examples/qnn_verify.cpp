// qnn_verify: run the static dataflow-graph analyzer on a zoo model and
// print the full diagnostic report — the software analog of the Maxeler
// compile-time graph checks (see verify/graph_check.h and DESIGN.md).
//
//   qnn_verify [--json] [model] [input_size] [fifo_capacity]
//     --json         machine-readable report on stdout (one JSON object
//                    with ok/errors/warnings and every diagnostic); the
//                    human banner moves to stderr so stdout stays pure
//     model          resnet18 | resnet34 | resnet18_noskip | alexnet |
//                    vgg | finn | tiny                 (default resnet18)
//     input_size     pixels per side                  (default per model)
//     fifo_capacity  user FIFO depth in values, 0 = auto line-buffer
//                    sizing                           (default 0)
//
// Exit status (distinct, so CI can gate on warnings without parsing):
//   0  clean — no errors, no warnings (info notes allowed)
//   1  at least one error-severity diagnostic
//   2  bad usage (unknown model / flag, an input_size or fifo_capacity
//      that is not a whole non-negative decimal in range, or a size the
//      model cannot be built at)
//   3  warnings only — the graph runs, but something deserves a look
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "partition/partitioner.h"
#include "verify/graph_check.h"

namespace {

/// `text` as a whole non-negative decimal no larger than `max`; nullopt
/// for anything else (sign, blank, trailing characters, overflow).
std::optional<std::uint64_t> parse_whole(const std::string& text,
                                         std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

/// The zoo model named `model` at `size` pixels per side; nullopt for an
/// unknown name. Throws qnn::Error for a size the model cannot be built at.
std::optional<qnn::NetworkSpec> zoo_spec(const std::string& model, int size) {
  namespace models = qnn::models;
  if (model == "resnet18") return models::resnet18(size, 1000, 2);
  if (model == "resnet34") return models::resnet34(size, 1000, 2);
  if (model == "resnet18_noskip") {
    return models::resnet18_noskip(size, 1000, 2);
  }
  if (model == "alexnet") return models::alexnet(size, 1000, 2);
  if (model == "vgg") return models::vgg_like(size, 10, 2);
  if (model == "finn") return models::finn_cnv(10, 2);
  if (model == "tiny") return models::tiny(size, 4, 2);
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qnn;
  bool json = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "' (only --json)\n";
      return 2;
    } else {
      args.push_back(arg);
    }
  }
  const std::string model = !args.empty() ? args[0] : "resnet18";
  const int default_size =
      model == "vgg" ? 32 : (model == "finn" ? 32 : (model == "tiny" ? 12
                                                                     : 224));
  int size = default_size;
  if (args.size() > 1) {
    const auto v = parse_whole(args[1], std::numeric_limits<int>::max());
    if (!v) {
      std::cerr << "input_size '" << args[1]
                << "' is not a whole non-negative number of pixels\n";
      return 2;
    }
    size = static_cast<int>(*v);
  }
  std::size_t fifo_capacity = 0;
  if (args.size() > 2) {
    const auto v =
        parse_whole(args[2], std::numeric_limits<std::size_t>::max());
    if (!v) {
      std::cerr << "fifo_capacity '" << args[2]
                << "' is not a whole non-negative number of values\n";
      return 2;
    }
    fifo_capacity = static_cast<std::size_t>(*v);
  }

  // An unknown model is nullopt; a size the model cannot take throws.
  std::optional<NetworkSpec> spec;
  Pipeline pipeline;
  try {
    spec = zoo_spec(model, size);
    if (spec) pipeline = expand(*spec);
  } catch (const Error& e) {
    std::cerr << "cannot build " << model << " at input_size " << size
              << ": " << e.what() << "\n";
    return 2;
  }
  if (!spec) {
    std::cerr << "unknown model '" << model
              << "' (use resnet18 | resnet34 | resnet18_noskip | alexnet | "
                 "vgg | finn | tiny)\n";
    return 2;
  }
  const NetworkParams params = NetworkParams::random(pipeline, /*seed=*/1);
  EngineOptions options;
  options.fifo_capacity = fifo_capacity;

  // The same placement DfeSession::compile would use, so the report covers
  // the multi-DFE feasibility checks too.
  const PartitionConfig partition_config;
  const PartitionResult placement =
      partition_optimal(pipeline, partition_config);

  const Report report = verify_all(pipeline, &params, options, &placement,
                                   partition_config);

  const FifoPlan plan = plan_fifos(pipeline, options);
  // Engine tasks: one per node that is not a BnAct (the port that writes
  // a BnAct's input evaluates it; a fanned-out stream is written by its
  // producer).
  const auto kernels = std::count_if(
      pipeline.nodes.begin(), pipeline.nodes.end(),
      [](const Node& n) { return n.kind != NodeKind::BnAct; });
  std::ostream& banner = json ? std::cerr : std::cout;
  banner << spec->name << ": " << pipeline.size() << " nodes in " << kernels
         << " kernels, " << plan.streams.size() << " streams, "
         << plan.total_capacity()
         << " buffered values ("
         << (fifo_capacity == 0
                 ? std::string("auto line-buffer sizing")
                 : "fifo_capacity = " + std::to_string(fifo_capacity))
         << ", burst "
         << (plan.burst == 0 ? std::string("one row per edge")
                             : std::to_string(plan.burst))
         << "), " << placement.num_dfes()
         << " DFE(s)\n\n";

  if (json) {
    std::cout << report.json();
  } else {
    const std::string findings = report.str();
    if (!findings.empty()) std::cout << findings << "\n";
    std::cout << report.summary() << "\n";
  }
  if (!report.ok()) return 1;
  return report.warnings() > 0 ? 3 : 0;
}
