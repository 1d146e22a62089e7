// Primitive streaming pipeline: the lowered form every engine consumes.
//
// expand() lowers a NetworkSpec into a topologically ordered list of
// primitive nodes (Conv, MaxPool, AvgPool, BnAct, Add). The list is a chain
// with optional skip edges — exactly the topology the paper's streaming
// architecture supports (§III-B5): residual blocks fork a 16-bit
// non-quantized stream around two convolutions and re-join with an adder.
//
// The same Pipeline drives:
//   * the golden reference executor   (nn/reference.h)
//   * the threaded dataflow engine    (dataflow/engine.h)
//   * the cycle-level simulator       (sim/cycle_model.h)
//   * the FPGA resource model         (fpga/resource_model.h)
//   * the multi-DFE partitioner       (partition/partitioner.h)
#pragma once

#include <string>
#include <vector>

#include "core/shape.h"
#include "nn/network.h"

namespace qnn {

enum class NodeKind { Conv, MaxPool, AvgPool, BnAct, Add };

[[nodiscard]] const char* node_kind_name(NodeKind k);

/// One primitive streaming kernel.
struct Node {
  NodeKind kind{};
  std::string name;

  /// Producer of the main input stream: node index, or -1 for the pipeline
  /// input. Always < own index (topological order).
  int main_from = -1;
  /// Add only: producer of the skip input stream (buffered 16-bit path).
  int skip_from = -1;

  Shape in{};   // shape of the main input stream
  Shape out{};  // shape of the output stream

  int in_bits = 0;   // element width of the main input stream
  int out_bits = 0;  // element width of the output stream

  // Window parameters (Conv / MaxPool / AvgPool).
  int k = 0;
  int stride = 1;
  int pad = 0;

  /// Parameter bank index: Conv -> NetworkParams::convs,
  /// BnAct -> NetworkParams::bnacts. -1 for parameterless nodes.
  int param = -1;

  [[nodiscard]] bool is_window_op() const {
    return kind == NodeKind::Conv || kind == NodeKind::MaxPool ||
           kind == NodeKind::AvgPool;
  }
  [[nodiscard]] FilterShape filter_shape() const {
    QNN_DCHECK(kind == NodeKind::Conv, "not a convolution");
    return FilterShape{out.c, k, in.c};
  }
};

/// Lowered network. `nodes` is topologically ordered; the last node's
/// output is the network output (class logits for classifiers).
struct Pipeline {
  std::string name;
  Shape input{};
  int input_bits = 8;
  int act_bits = 2;
  std::vector<Node> nodes;
  int num_conv_params = 0;
  int num_bnact_params = 0;

  [[nodiscard]] int size() const { return static_cast<int>(nodes.size()); }
  [[nodiscard]] const Node& node(int i) const {
    QNN_DCHECK(i >= 0 && i < size(), "node index out of range");
    return nodes[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Shape output_shape() const {
    QNN_CHECK(!nodes.empty(), "empty pipeline");
    return nodes.back().out;
  }

  /// Indices of nodes consuming node i's output (main or skip edges).
  [[nodiscard]] std::vector<int> consumers(int i) const;

  /// Total binarized weight bits across all convolutions.
  [[nodiscard]] std::int64_t total_weight_bits() const;

  /// Throws if shapes, edges, or topological order are inconsistent.
  void validate() const;
};

/// Widest input code a conv takes: the byte datapath's two byte-planes.
inline constexpr int kMaxConvInputBits = 16;

/// Bits required to represent any pre-activation sum of a conv node with
/// the given window size and unsigned input width, as a signed integer.
[[nodiscard]] int preact_bits(std::int64_t window_values, int in_bits);

/// Lower a NetworkSpec to its primitive pipeline.
[[nodiscard]] Pipeline expand(const NetworkSpec& spec);

}  // namespace qnn
