#include "nn/pipeline.h"

#include <algorithm>
#include <bit>

namespace qnn {

const char* node_kind_name(NodeKind k) {
  switch (k) {
    case NodeKind::Conv:
      return "conv";
    case NodeKind::MaxPool:
      return "maxpool";
    case NodeKind::AvgPool:
      return "avgpool";
    case NodeKind::BnAct:
      return "bnact";
    case NodeKind::Add:
      return "add";
  }
  return "?";
}

std::vector<int> Pipeline::consumers(int i) const {
  std::vector<int> out;
  for (int j = i + 1; j < size(); ++j) {
    if (nodes[static_cast<std::size_t>(j)].main_from == i ||
        nodes[static_cast<std::size_t>(j)].skip_from == i) {
      out.push_back(j);
    }
  }
  return out;
}

std::int64_t Pipeline::total_weight_bits() const {
  std::int64_t total = 0;
  for (const auto& n : nodes) {
    if (n.kind == NodeKind::Conv) total += n.filter_shape().total_weights();
  }
  return total;
}

void Pipeline::validate() const {
  QNN_CHECK(!nodes.empty(), "empty pipeline");
  for (int i = 0; i < size(); ++i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    QNN_CHECK(n.main_from >= -1 && n.main_from < i,
              "node " + n.name + ": main edge breaks topological order");
    const Shape& src_shape =
        n.main_from < 0 ? input
                        : nodes[static_cast<std::size_t>(n.main_from)].out;
    QNN_CHECK(n.in == src_shape,
              "node " + n.name + ": input shape " + n.in.str() +
                  " != producer output " + src_shape.str());
    if (n.kind == NodeKind::Add) {
      QNN_CHECK(n.skip_from >= 0 && n.skip_from < i,
                "node " + n.name + ": skip edge breaks topological order");
      const Shape& skip_shape =
          nodes[static_cast<std::size_t>(n.skip_from)].out;
      QNN_CHECK(skip_shape == n.in,
                "node " + n.name + ": skip shape " + skip_shape.str() +
                    " != main shape " + n.in.str());
      QNN_CHECK(n.out == n.in, "Add must preserve shape");
    } else {
      QNN_CHECK(n.skip_from == -1, "only Add nodes take skip inputs");
    }
    if (n.is_window_op()) {
      QNN_CHECK(n.out == conv_out_shape(n.in, n.out.c, n.k, n.stride, n.pad),
                "node " + n.name + ": window output shape mismatch");
    }
    QNN_CHECK(n.in_bits >= 1 && n.out_bits >= 1,
              "node " + n.name + ": stream widths unset");
  }
}

int preact_bits(std::int64_t window_values, int in_bits) {
  QNN_CHECK(window_values > 0 && in_bits >= 1 && in_bits <= kMaxConvInputBits,
            "bad pre-activation width query");
  const auto max_abs = static_cast<std::uint64_t>(window_values) *
                       ((std::uint64_t{1} << in_bits) - 1);
  return static_cast<int>(std::bit_width(max_abs)) + 1;  // + sign bit
}

namespace {

/// Incremental pipeline builder holding the running stream state.
class Expander {
 public:
  explicit Expander(const NetworkSpec& spec) : spec_(spec) {
    p_.name = spec.name;
    p_.input = spec.input;
    p_.input_bits = spec.input_bits;
    p_.act_bits = spec.act_bits;
    cur_ = spec.input;
    cur_bits_ = spec.input_bits;
  }

  Pipeline run() {
    QNN_CHECK(spec_.input.valid(), "network input shape invalid");
    QNN_CHECK(spec_.input_bits >= 1 && spec_.input_bits <= 8,
              "input bits out of range");
    QNN_CHECK(spec_.act_bits >= 1 && spec_.act_bits <= 8,
              "activation bits out of range");
    QNN_CHECK(!spec_.blocks.empty(), "network has no blocks");
    for (const BlockSpec& b : spec_.blocks) {
      std::visit([this](const auto& blk) { emit_block(blk); }, b);
    }
    p_.num_conv_params = conv_params_;
    p_.num_bnact_params = bnact_params_;
    p_.validate();
    return std::move(p_);
  }

 private:
  /// The name push() gives the next node, of kind `k`.
  [[nodiscard]] std::string next_name(NodeKind k) const {
    return std::string(node_kind_name(k)) + "_" + std::to_string(p_.size());
  }

  int push(Node n) {
    n.name = next_name(n.kind);
    p_.nodes.push_back(std::move(n));
    return p_.size() - 1;
  }

  /// Emit a convolution reading stream `from` with shape/bits as tracked;
  /// returns the node index. Does not advance the carried stream state.
  int emit_conv(int from, const Shape& in, int in_bits, int out_c, int k,
                int stride, int pad) {
    // A stream wider than the datapath (a large map's average-pool window
    // sum, say; the network input is at most 8 bits) is refused here,
    // naming where it comes from.
    QNN_CHECK(in_bits <= kMaxConvInputBits,
              next_name(NodeKind::Conv) + ": input is " +
                  std::to_string(in_bits) + " bits wide, past the " +
                  std::to_string(kMaxConvInputBits) +
                  "-bit conv datapath limit; it comes from " +
                  p_.node(from).name);
    Node n;
    n.kind = NodeKind::Conv;
    n.main_from = from;
    n.in = in;
    n.out = conv_out_shape(in, out_c, k, stride, pad);
    n.in_bits = in_bits;
    n.out_bits = preact_bits(static_cast<std::int64_t>(k) * k * in.c, in_bits);
    n.k = k;
    n.stride = stride;
    n.pad = pad;
    n.param = conv_params_++;
    return push(n);
  }

  int emit_bnact(int from, const Shape& shape, int in_bits) {
    Node n;
    n.kind = NodeKind::BnAct;
    n.main_from = from;
    n.in = shape;
    n.out = shape;
    n.in_bits = in_bits;
    n.out_bits = spec_.act_bits;
    n.param = bnact_params_++;
    return push(n);
  }

  /// If the carried stream is a 16-bit pre-activation (end of a residual
  /// chain), quantize it so downstream kernels see activation codes.
  void quantize_carry() {
    if (!carry_is_preact_) return;
    prev_ = emit_bnact(prev_, cur_, cur_bits_);
    cur_bits_ = spec_.act_bits;
    carry_is_preact_ = false;
  }

  void emit_block(const ConvBlockSpec& b) {
    quantize_carry();
    prev_ = emit_conv(prev_, cur_, cur_bits_, b.out_c, b.k, b.stride, b.pad);
    cur_ = p_.nodes.back().out;
    cur_bits_ = p_.nodes.back().out_bits;
    if (b.bn_act) {
      prev_ = emit_bnact(prev_, cur_, cur_bits_);
      cur_bits_ = spec_.act_bits;
    } else {
      carry_is_preact_ = true;
    }
  }

  void emit_block(const PoolBlockSpec& b) {
    quantize_carry();
    Node n;
    n.kind = b.kind == PoolKind::Max ? NodeKind::MaxPool : NodeKind::AvgPool;
    n.main_from = prev_;
    n.in = cur_;
    n.in_bits = cur_bits_;
    if (b.global) {
      QNN_CHECK(cur_.h == cur_.w, "global pool requires square maps");
      n.k = cur_.h;
      n.stride = 1;
      n.pad = 0;
    } else {
      n.k = b.k;
      n.stride = b.stride;
      n.pad = b.pad;
    }
    n.out = conv_out_shape(cur_, cur_.c, n.k, n.stride, n.pad);
    if (n.kind == NodeKind::MaxPool) {
      n.out_bits = cur_bits_;
    } else {
      // Average pooling is implemented as an integer window sum; the 1/k^2
      // scale is argmax-invariant and is folded away (see DESIGN.md).
      const auto max_sum = static_cast<std::uint64_t>(n.k) * n.k *
                           ((std::uint64_t{1} << cur_bits_) - 1);
      n.out_bits = static_cast<int>(std::bit_width(max_sum));
    }
    prev_ = push(n);
    cur_ = p_.nodes.back().out;
    cur_bits_ = p_.nodes.back().out_bits;
  }

  void emit_block(const DenseBlockSpec& b) {
    quantize_carry();
    QNN_CHECK(cur_.h == cur_.w, "dense lowering requires square maps");
    emit_block(ConvBlockSpec{b.units, cur_.h, 1, 0, b.bn_act});
  }

  void emit_block(const ResidualBlockSpec& b) {
    // Entering stream: either activation codes (first block after a pool)
    // or the 16-bit pre-activation accumulator of the previous block. The
    // skip connection taps the accumulator when available (§III-B5: "skip
    // connections are 16-bit integers which accumulate non-quantized
    // outputs of convolutions"); for the first block it taps the codes.
    const int preact_idx = prev_;
    const Shape in_shape = cur_;
    quantize_carry();
    const int q_idx = prev_;
    const int q_bits = cur_bits_;

    const bool need_proj = b.stride != 1 || in_shape.c != b.out_c;
    int shortcut_idx;
    if (need_proj) {
      shortcut_idx =
          emit_conv(q_idx, in_shape, q_bits, b.out_c, 1, b.stride, 0);
    } else {
      shortcut_idx = preact_idx >= 0 && preact_idx != q_idx ? preact_idx
                                                            : q_idx;
    }
    const Shape short_shape =
        shortcut_idx < 0 ? p_.input
                         : p_.nodes[static_cast<std::size_t>(shortcut_idx)].out;
    const int short_bits =
        shortcut_idx < 0
            ? p_.input_bits
            : p_.nodes[static_cast<std::size_t>(shortcut_idx)].out_bits;

    const int t1 =
        emit_conv(q_idx, in_shape, q_bits, b.out_c, 3, b.stride, 1);
    const Shape mid = p_.nodes[static_cast<std::size_t>(t1)].out;
    const int q2 = emit_bnact(
        t1, mid, p_.nodes[static_cast<std::size_t>(t1)].out_bits);
    const int t2 = emit_conv(q2, mid, spec_.act_bits, b.out_c, 3, 1, 1);
    // By value: push(add) below may reallocate p_.nodes, and out_shape is
    // read again (cur_) after that push.
    const Shape out_shape = p_.nodes[static_cast<std::size_t>(t2)].out;
    QNN_CHECK(out_shape == short_shape,
              "residual skip/main shape mismatch: " + out_shape.str() +
                  " vs " + short_shape.str());

    Node add;
    add.kind = NodeKind::Add;
    add.main_from = t2;
    add.skip_from = shortcut_idx;
    add.in = out_shape;
    add.out = out_shape;
    add.in_bits = p_.nodes[static_cast<std::size_t>(t2)].out_bits;
    add.out_bits = std::max(add.in_bits, short_bits) + 1;
    prev_ = push(add);
    cur_ = out_shape;
    cur_bits_ = p_.nodes.back().out_bits;
    carry_is_preact_ = true;
  }

  const NetworkSpec& spec_;
  Pipeline p_;
  Shape cur_{};
  int cur_bits_ = 8;
  int prev_ = -1;
  bool carry_is_preact_ = false;
  int conv_params_ = 0;
  int bnact_params_ = 0;
};

}  // namespace

Pipeline expand(const NetworkSpec& spec) { return Expander(spec).run(); }

}  // namespace qnn
