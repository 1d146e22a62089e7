#include "nn/serialize.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

namespace qnn {
namespace {

constexpr char kMagic[4] = {'Q', 'N', 'N', 'M'};
constexpr std::uint32_t kVersion = 1;

// Block tags.
enum : std::uint32_t {
  kTagConv = 1,
  kTagPool = 2,
  kTagResidual = 3,
  kTagDense = 4,
};

class Writer {
 public:
  explicit Writer(const std::string& path) : out_(path, std::ios::binary) {
    QNN_CHECK(out_.good(), "cannot open " + path + " for writing");
  }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
  }
  void finish() { QNN_CHECK(out_.good(), "write failed"); }

 private:
  std::ofstream out_;
};

class Reader {
 public:
  explicit Reader(const std::string& path)
      : in_(path, std::ios::binary | std::ios::ate) {
    QNN_CHECK(in_.good(), "cannot open " + path);
    size_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);
  }
  /// Bytes not yet read.
  [[nodiscard]] std::uint64_t remaining() {
    return size_ - static_cast<std::uint64_t>(in_.tellg());
  }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  float f32() { return get<float>(); }
  double f64() { return get<double>(); }
  std::string str() {
    const std::uint32_t n = u32();
    QNN_CHECK(n <= (1u << 20), "unreasonable string length in file");
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  void raw(void* data, std::size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    QNN_CHECK(in_.gcount() == static_cast<std::streamsize>(n),
              "truncated network file");
  }

 private:
  template <typename T>
  T get() {
    T v{};
    raw(&v, sizeof v);
    return v;
  }
  std::ifstream in_;
  std::uint64_t size_ = 0;
};

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > kSaturated / b ? kSaturated : a * b;
}

/// Exact size in bytes of the parameter section save_network writes for
/// `pipeline`, saturated so an absurd spec can never wrap to a small one:
/// two bank counts, each conv bank's shape and packed filter words, each
/// BnAct bank's header and four floats per channel.
std::uint64_t param_section_bytes(const Pipeline& pipeline) {
  std::uint64_t bytes = 2 * sizeof(std::uint32_t);
  for (const Node& n : pipeline.nodes) {
    if (n.kind == NodeKind::Conv) {
      const FilterShape f = n.filter_shape();
      const std::uint64_t bits =
          sat_mul(sat_mul(static_cast<std::uint64_t>(f.k),
                          static_cast<std::uint64_t>(f.k)),
                  static_cast<std::uint64_t>(f.in_c));
      constexpr auto word_bits = static_cast<std::uint64_t>(kWordBits);
      const std::uint64_t words =
          bits / word_bits + (bits % word_bits != 0 ? 1 : 0);
      bytes = sat_add(bytes, 3 * sizeof(std::int32_t));
      bytes = sat_add(bytes, sat_mul(sat_mul(static_cast<std::uint64_t>(
                                                 f.out_c),
                                             words),
                                     sizeof(std::uint64_t)));
    } else if (n.kind == NodeKind::BnAct) {
      bytes = sat_add(bytes, 2 * sizeof(std::int32_t) + sizeof(double));
      bytes = sat_add(bytes, sat_mul(static_cast<std::uint64_t>(n.in.c),
                                     4 * sizeof(float)));
    }
  }
  return bytes;
}

void write_spec(Writer& w, const NetworkSpec& spec) {
  w.str(spec.name);
  w.i32(spec.input.h);
  w.i32(spec.input.w);
  w.i32(spec.input.c);
  w.i32(spec.input_bits);
  w.i32(spec.act_bits);
  w.u32(static_cast<std::uint32_t>(spec.blocks.size()));
  for (const BlockSpec& b : spec.blocks) {
    std::visit(
        [&w](const auto& blk) {
          using T = std::decay_t<decltype(blk)>;
          if constexpr (std::is_same_v<T, ConvBlockSpec>) {
            w.u32(kTagConv);
            w.i32(blk.out_c);
            w.i32(blk.k);
            w.i32(blk.stride);
            w.i32(blk.pad);
            w.u32(blk.bn_act ? 1 : 0);
          } else if constexpr (std::is_same_v<T, PoolBlockSpec>) {
            w.u32(kTagPool);
            w.u32(blk.kind == PoolKind::Max ? 0 : 1);
            w.i32(blk.k);
            w.i32(blk.stride);
            w.i32(blk.pad);
            w.u32(blk.global ? 1 : 0);
          } else if constexpr (std::is_same_v<T, ResidualBlockSpec>) {
            w.u32(kTagResidual);
            w.i32(blk.out_c);
            w.i32(blk.stride);
          } else {
            static_assert(std::is_same_v<T, DenseBlockSpec>);
            w.u32(kTagDense);
            w.i32(blk.units);
            w.u32(blk.bn_act ? 1 : 0);
          }
        },
        b);
  }
}

NetworkSpec read_spec(Reader& r) {
  NetworkSpec spec;
  spec.name = r.str();
  spec.input.h = r.i32();
  spec.input.w = r.i32();
  spec.input.c = r.i32();
  spec.input_bits = r.i32();
  spec.act_bits = r.i32();
  const std::uint32_t blocks = r.u32();
  QNN_CHECK(blocks <= 4096, "unreasonable block count");
  for (std::uint32_t i = 0; i < blocks; ++i) {
    switch (r.u32()) {
      case kTagConv: {
        ConvBlockSpec b;
        b.out_c = r.i32();
        b.k = r.i32();
        b.stride = r.i32();
        b.pad = r.i32();
        b.bn_act = r.u32() != 0;
        spec.blocks.emplace_back(b);
        break;
      }
      case kTagPool: {
        PoolBlockSpec b;
        b.kind = r.u32() == 0 ? PoolKind::Max : PoolKind::Avg;
        b.k = r.i32();
        b.stride = r.i32();
        b.pad = r.i32();
        b.global = r.u32() != 0;
        spec.blocks.emplace_back(b);
        break;
      }
      case kTagResidual: {
        ResidualBlockSpec b;
        b.out_c = r.i32();
        b.stride = r.i32();
        spec.blocks.emplace_back(b);
        break;
      }
      case kTagDense: {
        DenseBlockSpec b;
        b.units = r.i32();
        b.bn_act = r.u32() != 0;
        spec.blocks.emplace_back(b);
        break;
      }
      default:
        throw Error("unknown block tag in network file");
    }
  }
  return spec;
}

}  // namespace

void save_network(const std::string& path, const NetworkSpec& spec,
                  const NetworkParams& params) {
  // Validate coherence before touching the disk.
  const Pipeline pipeline = expand(spec);
  QNN_CHECK(static_cast<int>(params.convs.size()) ==
                pipeline.num_conv_params,
            "params do not match spec (conv banks)");
  QNN_CHECK(static_cast<int>(params.bnacts.size()) ==
                pipeline.num_bnact_params,
            "params do not match spec (bnact banks)");

  Writer w(path);
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  write_spec(w, spec);

  w.u32(static_cast<std::uint32_t>(params.convs.size()));
  for (const ConvParams& c : params.convs) {
    const FilterShape& f = c.weights.shape();
    w.i32(f.out_c);
    w.i32(f.k);
    w.i32(f.in_c);
    for (int o = 0; o < f.out_c; ++o) {
      const BitVector& filter = c.weights.filter(o);
      for (std::int64_t word = 0; word < filter.words(); ++word) {
        w.u64(filter.word(word));
      }
    }
  }

  w.u32(static_cast<std::uint32_t>(params.bnacts.size()));
  for (const BnActParams& b : params.bnacts) {
    w.i32(b.bn.channels());
    w.i32(b.quantizer.bits());
    w.f64(b.quantizer.range_size());
    for (int c = 0; c < b.bn.channels(); ++c) {
      const BnParams& p = b.bn.at(c);
      w.f32(p.gamma);
      w.f32(p.mu);
      w.f32(p.inv_sigma);
      w.f32(p.beta);
    }
  }
  w.finish();
}

LoadedNetwork load_network(const std::string& path) {
  Reader r(path);
  char magic[4];
  r.raw(magic, sizeof magic);
  QNN_CHECK(std::memcmp(magic, kMagic, sizeof kMagic) == 0,
            path + " is not a QNN network file");
  const std::uint32_t version = r.u32();
  QNN_CHECK(version == kVersion,
            "unsupported network file version " + std::to_string(version));

  LoadedNetwork net;
  net.spec = read_spec(r);
  net.pipeline = expand(net.spec);  // validates shapes and edges
  // The spec fixes every bank's size, so a file too short for them is
  // refused before the first bank is allocated: a tiny file declaring a
  // huge layer never turns into a huge allocation.
  QNN_CHECK(param_section_bytes(net.pipeline) <= r.remaining(),
            "network file is shorter than the parameters its spec declares");

  // The node each stored bank belongs to: every bank is checked against
  // its node's geometry BEFORE anything is allocated from sizes read off
  // the file, so a corrupt size is an Error, never a huge allocation.
  std::vector<const Node*> conv_node(
      static_cast<std::size_t>(net.pipeline.num_conv_params), nullptr);
  std::vector<const Node*> bnact_node(
      static_cast<std::size_t>(net.pipeline.num_bnact_params), nullptr);
  for (const Node& n : net.pipeline.nodes) {
    if (n.kind == NodeKind::Conv) {
      conv_node.at(static_cast<std::size_t>(n.param)) = &n;
    } else if (n.kind == NodeKind::BnAct) {
      bnact_node.at(static_cast<std::size_t>(n.param)) = &n;
    }
  }

  const std::uint32_t convs = r.u32();
  QNN_CHECK(convs == conv_node.size(),
            "conv bank count does not match the stored spec");
  for (const Node* node : conv_node) {
    FilterShape f;
    f.out_c = r.i32();
    f.k = r.i32();
    f.in_c = r.i32();
    QNN_CHECK(node != nullptr && f == node->filter_shape(),
              "stored conv bank does not match node " +
                  (node != nullptr ? node->name : std::string("(none)")));
    FilterBank bank(f);
    for (int o = 0; o < f.out_c; ++o) {
      BitVector& filter = bank.filter(o);
      for (std::int64_t word = 0; word < filter.words(); ++word) {
        filter.word(word) = r.u64();
      }
      // Enforce the tail-bits-zero invariant against corrupt input.
      if (filter.bits() % kWordBits != 0) {
        const Word tail_mask =
            low_mask(static_cast<int>(filter.bits() % kWordBits));
        QNN_CHECK((filter.word(filter.words() - 1) & ~tail_mask) == 0,
                  "corrupt filter tail bits in file");
      }
    }
    net.params.convs.push_back(ConvParams{std::move(bank)});
  }

  const std::uint32_t bnacts = r.u32();
  QNN_CHECK(bnacts == bnact_node.size(),
            "bnact bank count does not match the stored spec");
  for (const Node* node : bnact_node) {
    const int channels = r.i32();
    QNN_CHECK(node != nullptr && channels == node->in.c,
              "stored bnact bank does not match node " +
                  (node != nullptr ? node->name : std::string("(none)")));
    const int bits = r.i32();
    const double d = r.f64();
    QNN_CHECK(std::isfinite(d), "non-finite activation range in file");
    BnActParams b;
    b.quantizer = ActQuantizer(bits, d);
    BnLayerParams bn(channels);
    for (int c = 0; c < channels; ++c) {
      BnParams& p = bn.at(c);
      p.gamma = r.f32();
      p.mu = r.f32();
      p.inv_sigma = r.f32();
      p.beta = r.f32();
      QNN_CHECK(std::isfinite(p.gamma) && std::isfinite(p.mu) &&
                    std::isfinite(p.inv_sigma) && std::isfinite(p.beta),
                "non-finite BatchNorm parameter in file (node " +
                    node->name + ")");
    }
    b.bn = std::move(bn);
    net.params.bnacts.push_back(std::move(b));
  }
  // Single source of truth for folding: rebuild thresholds on load.
  net.params.refold();
  return net;
}

}  // namespace qnn
