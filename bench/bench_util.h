// Shared helpers for the benchmark harness. Every bench regenerates one
// table or figure from the paper's evaluation section and prints the same
// rows/series the paper reports, with the paper's own numbers alongside
// where the text states them (marked "paper"). Our side always comes from
// the models — never from hard-coded constants.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "io/table.h"
#include "models/zoo.h"
#include "nn/pipeline.h"

namespace qnn::bench {

inline void heading(const std::string& title, const std::string& subtitle) {
  std::cout << "\n=== " << title << " ===\n" << subtitle << "\n\n";
}

/// Print the table; when QNN_CSV_DIR is set, also save it as
/// $QNN_CSV_DIR/<name>.csv for plotting.
inline void emit(const Table& t, const std::string& name) {
  t.print(std::cout);
  const char* dir = std::getenv("QNN_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  if (t.save_csv(path)) {
    std::cout << "(csv written to " << path << ")\n";
  } else {
    std::cout << "(could not write " << path << ")\n";
  }
}

/// Save `json` as $QNN_CSV_DIR/<name> (a BENCH_*.json record). Without
/// QNN_CSV_DIR nothing is written, only where it would have gone: a bench
/// run from the repository root must never overwrite the committed
/// baseline of the same name.
inline void write_json(const std::string& name, const std::string& json) {
  const char* dir = std::getenv("QNN_CSV_DIR");
  if (dir == nullptr) {
    std::cout << "(json not written: set QNN_CSV_DIR to write it to "
                 "$QNN_CSV_DIR/"
              << name << ")\n";
    return;
  }
  const std::string path = std::string(dir) + "/" + name;
  std::ofstream out(path);
  if (out && (out << json)) {
    std::cout << "(json written to " << path << ")\n";
  } else {
    std::cout << "(could not write " << path << ")\n";
  }
}

/// The paper's five evaluation workloads (§IV-B1 / Fig 5).
struct Workload {
  std::string label;
  std::string dataset;
  NetworkSpec spec;
};

inline std::vector<Workload> paper_workloads() {
  return {
      {"VGG-like 32x32", "CIFAR-10", models::vgg_like(32, 10, 2)},
      {"VGG-like 96x96", "STL-10", models::vgg_like(96, 10, 2)},
      {"VGG-like 144x144", "STL-10 resized", models::vgg_like(144, 10, 2)},
      {"AlexNet 224x224", "ImageNet", models::alexnet(224, 1000, 2)},
      {"ResNet-18 224x224", "ImageNet", models::resnet18(224, 1000, 2)},
  };
}

}  // namespace qnn::bench
