#include "dataflow/kernels.h"

#include <algorithm>

#include "core/packed_planes.h"

namespace qnn {
namespace {

/// Input bursts consumed per step() before reporting kProgress: bounds the
/// work of one cooperative slice so no kernel starves its siblings on a
/// shared worker, while keeping per-step overhead amortized.
constexpr int kRoundsPerStep = 4;

/// Burst capacity for a window kernel: at least one full padded input row
/// (the §III-B1b line granularity), so the kernel ingests rows at a time.
std::size_t window_burst(const Node& node, std::size_t burst) {
  const auto row =
      static_cast<std::size_t>(node.in.w) * static_cast<std::size_t>(node.in.c);
  return std::max<std::size_t>({burst, row, 1});
}

}  // namespace

// ------------------------------------------------------------------ OutStage

OutStage::OutStage(PortRings rings, std::size_t reserve)
    : ops_(simd::vec_ops()) {
  for (Stream* s : rings.raw) rings_.push_back(Ring{s});
  for (const PortAct& a : rings.acts) {
    QNN_CHECK(a.node != nullptr && a.thresholds != nullptr &&
                  a.node->kind == NodeKind::BnAct,
              "an output port act needs a BnAct and its thresholds");
    QNN_CHECK(a.from >= -1 && a.from < static_cast<int>(acts_.size()),
              a.node->name + ": port act reads an act not yet mapped");
    ThresholdTable table(*a.thresholds);
    QNN_CHECK(table.channels() == a.node->in.c && table.channels() > 0,
              a.node->name + ": threshold bank channel count mismatch");
    acts_.push_back(Act{std::move(table), a.from, 0, {}, nullptr});
    for (Stream* s : a.rings) {
      rings_.push_back(Ring{s, static_cast<int>(acts_.size()) - 1});
    }
  }
  QNN_CHECK(!rings_.empty(), "an output port needs at least one ring");
  in_place_ = rings.raw.empty() &&
              std::count_if(rings.acts.begin(), rings.acts.end(),
                            [](const PortAct& a) { return a.from < 0; }) == 1;
  for (const Ring& r : rings_) {
    QNN_CHECK(r.stream != nullptr, "output port ring not wired");
  }
  buf_.reserve(reserve);
}

void OutStage::map(std::span<const std::int32_t> vals, std::int32_t* own) {
  // §III-B3's comparator + mux over the whole flush, carrying each
  // BnAct's channel phase across flushes: one vectorised threshold_codes
  // call per channel-aligned stretch.
  const std::size_t n = vals.size();
  for (Act& a : acts_) {
    const std::int32_t* in =
        a.from < 0 ? vals.data() : acts_[static_cast<std::size_t>(a.from)].out;
    std::int32_t* out = a.from < 0 ? own : nullptr;
    if (out == nullptr) {
      if (a.codes.size() < n) a.codes.resize(n);
      out = a.codes.data();
    }
    const int c = a.table.channels();
    int ch = a.ch;  // a local, so the code stores cannot alias it
    for (std::size_t i = 0; i < n;) {
      const std::size_t len =
          std::min(static_cast<std::size_t>(c - ch), n - i);
      a.table.eval(ops_, ch, {in + i, len}, out + i);
      i += len;
      ch += static_cast<int>(len);
      if (ch == c) ch = 0;
    }
    a.ch = ch;
    a.out = out;
  }
}

bool OutStage::flush(std::span<const std::int32_t> vals) {
  if (!mapped_) {
    map(vals);
    mapped_ = true;
  }
  bool all = true;
  for (Ring& r : rings_) {
    const std::span<const std::int32_t> out =
        r.act < 0 ? vals
                  : std::span<const std::int32_t>(
                        acts_[static_cast<std::size_t>(r.act)].out,
                        vals.size());
    if (r.pos < out.size()) {
      r.pos += r.stream->try_push_burst(out.subspan(r.pos));
    }
    if (r.pos < out.size()) {
      if (!r.stall_noted) {
        r.stall_noted = true;
        r.stream->note_push_stall();
      }
      all = false;
    } else {
      r.stall_noted = false;
    }
  }
  if (!all) return false;
  for (Ring& r : rings_) r.pos = 0;
  mapped_ = false;
  return true;
}

void OutStage::bind(ReadyHook* hook, int task) {
  for (Ring& r : rings_) r.stream->bind_producer(hook, task);
}

void OutStage::close() {
  for (Ring& r : rings_) r.stream->close();
}

void OutStage::clear() {
  buf_.clear();
  for (Ring& r : rings_) r = Ring{r.stream, r.act};
  for (Act& a : acts_) a.ch = 0;
  mapped_ = false;
}

// -------------------------------------------------------------- WindowKernel

WindowKernel::WindowKernel(const Node& node, Stream& in, PortRings outs,
                           std::size_t burst)
    : Kernel(node.name),
      node_(node),
      in_(in),
      scanner_(node.in, node.k, node.stride, node.pad),
      in_burst_(window_burst(node, burst)),
      stage_(std::move(outs)) {}

void WindowKernel::scan(std::span<const std::int32_t> vals, std::int64_t n) {
  ingest_run(vals, n);
  if (const WindowScanner::Run run = scanner_.advance_run(n); run.count > 0) {
    emit_run(run);
  }
}

void WindowKernel::advance_padding() {
  while (const std::int64_t n = scanner_.pad_run()) scan({}, n);
}

void WindowKernel::reset() {
  scanner_.reset();
  in_burst_.clear();
  stage_.clear();
  image_open_ = false;
  rearm_image();
}

void WindowKernel::bind_ready(ReadyHook* hook, int task) {
  in_.bind_consumer(hook, task);
  stage_.bind(hook, task);
}

StepResult WindowKernel::step() {
  if (!stage_.flush()) return StepResult::kBlocked;
  bool progressed = false;
  for (int round = 0; round < kRoundsPerStep; ++round) {
    // Padding positions (including whole trailing pad rows) consume no
    // input: "the kernel stops the input stream and inputs padding values
    // into the buffer instead" (§III-B1). Only once the image has begun,
    // though — pre-feeding a not-yet-started image's leading pad rows
    // would, for pad >= k, complete (and emit) windows of an image that
    // may never arrive.
    if (image_open_) advance_padding();
    if (scanner_.done()) {
      scanner_.reset();  // image complete; re-arm for the next one
      rearm_image();
      image_open_ = false;
      progressed = true;
      if (!stage_.flush()) return StepResult::kBlocked;
      continue;
    }
    if (in_burst_.refill(in_) == 0) {
      if (in_.drained()) {
        // End of stream is only legal at an image boundary.
        QNN_CHECK(!image_open_,
                  name() + ": input stream closed mid-image");
        if (!stage_.flush()) return StepResult::kBlocked;
        stage_.close();
        return StepResult::kDone;
      }
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    image_open_ = true;
    while (in_burst_.available() > 0) {
      advance_padding();
      if (scanner_.done()) break;  // burst spans an image boundary
      // Ingest the row segment up to the next padding interruption in one
      // step — no per-value padding test or scanner call.
      const std::int64_t run = std::min<std::int64_t>(
          scanner_.real_run(),
          static_cast<std::int64_t>(in_burst_.available()));
      scan(in_burst_.take(static_cast<std::size_t>(run)), run);
    }
    progressed = true;
    if (!stage_.flush()) return StepResult::kBlocked;
  }
  return StepResult::kProgress;
}

// ---------------------------------------------------------------- ConvKernel

class ConvKernel::Datapath {
 public:
  virtual ~Datapath() = default;
  /// Zero line-buffer row `r`: it re-enters the ring as padding (code 0).
  virtual void clear_row(int r) = 0;
  /// Store a run of codes into row `r` from value position `start`.
  virtual void pack_run(int r, std::int64_t start,
                        std::span<const std::int32_t> vals) = 0;
  /// Dot `count` windows whose K rows start at ring row `top`: window i
  /// takes `seg` values of each row from value position src + i*step, and
  /// its O responses go to out + i*O.
  virtual void dot_run(int top, std::int64_t src, std::int64_t step,
                       std::int64_t seg, int count, std::int32_t* out) = 0;
};

namespace {

/// Windows per dot on the bit-plane path: its dot is popcount-bound, so a
/// longer block saves weight loads the ports do not miss.
constexpr std::size_t kBitPlaneBlock = 2;
/// Windows per dot on the byte path: each expanded mask word serves all.
constexpr std::size_t kByteBlock = simd::kMaxWindowBlock;

/// Re-lay every filter of `weights` into `packed` (PackedFilters or
/// ByteFilters) from its BitVector words; their tail-zero invariant
/// carries over, so neither sweep needs weight-side masking.
template <class Packed>
void pack_filters(const FilterBank& weights, Packed& packed) {
  std::vector<Word> words;
  for (int o = 0; o < weights.shape().out_c; ++o) {
    const BitVector& f = weights.filter(o);
    words.resize(static_cast<std::size_t>(f.words()));
    for (std::int64_t w = 0; w < f.words(); ++w) {
      words[static_cast<std::size_t>(w)] = f.word(w);
    }
    packed.set(o, words);
  }
}

/// The run loop of both datapaths: `count` windows, window i at value
/// position src + i*step, built a block at a time into the slots of
/// `block` by build(position, slot) and dotted in one call per block.
template <class Block, class Filters, class Build>
void dot_blocks(const simd::VecOps& ops, Block& block, const Filters& weights,
                std::int64_t src, std::int64_t step, int count,
                std::int32_t* out, Build&& build) {
  const std::size_t o = weights.count();
  for (std::size_t i = 0, n = static_cast<std::size_t>(count); i < n;) {
    const std::size_t m = std::min(n - i, block.slots());
    for (std::size_t j = 0; j < m; ++j) {
      build(src + static_cast<std::int64_t>(i + j) * step, j);
    }
    block.dot(ops, weights, out + i * o, m);
    i += m;
  }
}

/// 1-2-bit codes: bit-plane line buffer, packed window, XNOR-popcount.
class BitPlanePath final : public ConvKernel::Datapath {
 public:
  BitPlanePath(const Node& node, const FilterBank& weights,
               std::int64_t row_values, std::int64_t window_values)
      : ops_(simd::vec_ops()),
        weights_(window_values, node.out.c),
        lines_(node.in_bits, node.k, row_values),
        block_(window_values, node.in_bits, kBitPlaneBlock) {
    pack_filters(weights, weights_);
  }
  void clear_row(int r) override { lines_.clear_row(r); }
  void pack_run(int r, std::int64_t start,
                std::span<const std::int32_t> vals) override {
    lines_.pack_run(ops_, r, start, vals);
  }
  void dot_run(int top, std::int64_t src, std::int64_t step, std::int64_t seg,
               int count, std::int32_t* out) override {
    dot_blocks(ops_, block_, weights_, src, step, count, out,
               [&](std::int64_t at, std::size_t slot) {
                 block_.build(ops_, lines_, top, at, seg, slot);
               });
  }

 private:
  const simd::VecOps& ops_;  // resolved once, at construction
  PackedFilters weights_;
  BitPlaneLineBuffer lines_;
  PackedWindow block_;
};

/// 3-16-bit codes: byte line buffer, byte window, VNNI byte dot.
class BytePath final : public ConvKernel::Datapath {
 public:
  BytePath(const Node& node, const FilterBank& weights,
           std::int64_t row_values, std::int64_t window_values)
      : ops_(simd::vec_ops()),
        weights_(window_values, node.out.c),
        lines_(node.in_bits, node.k, row_values),
        block_(window_values, lines_.planes(), kByteBlock) {
    pack_filters(weights, weights_);
  }
  void clear_row(int r) override { lines_.clear_row(r); }
  void pack_run(int r, std::int64_t start,
                std::span<const std::int32_t> vals) override {
    lines_.pack_run(r, start, vals);
  }
  void dot_run(int top, std::int64_t src, std::int64_t step, std::int64_t seg,
               int count, std::int32_t* out) override {
    dot_blocks(ops_, block_, weights_, src, step, count, out,
               [&](std::int64_t at, std::size_t slot) {
                 block_.build(lines_, top, at, seg, slot);
               });
  }

 private:
  const simd::VecOps& ops_;  // resolved once, at construction
  ByteFilters weights_;
  ByteLineBuffer lines_;
  ByteWindow block_;
};

}  // namespace

ConvKernel::ConvKernel(const Node& node, const FilterBank& weights,
                       Stream& in, PortRings outs, std::size_t burst)
    : WindowKernel(node, in, std::move(outs), burst) {
  QNN_CHECK(node.kind == NodeKind::Conv, "ConvKernel needs a Conv node");
  QNN_CHECK(weights.shape() == node.filter_shape(),
            "weight bank does not match node geometry");
  const std::int64_t row_values =
      static_cast<std::int64_t>(scanner().padded_w()) * node.in.c;
  const std::int64_t window_values = scanner().window_values();
  if (node.in_bits <= simd::kMaxPlanes) {
    path_ = std::make_unique<BitPlanePath>(node, weights, row_values,
                                           window_values);
  } else {
    path_ = std::make_unique<BytePath>(node, weights, row_values,
                                       window_values);
  }
}

ConvKernel::~ConvKernel() = default;

void ConvKernel::rearm_image() { packed_row_ = -1; }

void ConvKernel::ensure_row(int y) {
  const int k = node().k;
  for (int r = std::max(packed_row_ + 1, y - k + 1); r <= y; ++r) {
    path_->clear_row(r % k);
  }
  packed_row_ = std::max(packed_row_, y);
}

void ConvKernel::ingest_run(std::span<const std::int32_t> vals,
                            std::int64_t /*n*/) {
  // Padding is code 0: a cleared row already holds it.
  if (vals.empty()) return;
  const int y = scanner().cur_row();
  ensure_row(y);
  path_->pack_run(y % node().k, scanner().row_value_pos(), vals);
}

void ConvKernel::emit_run(const WindowScanner::Run& run) {
  // Every activation was stored exactly once at ingest; each window of the
  // run is built in one pass over its K row segments of the line buffer
  // (rows recycled mod K, keyed on the scanner's row), which holds the
  // whole run.
  const int k = node().k;
  const int stride = node().stride;
  const std::int64_t chans = node().in.c;
  // All-padding rows (top/bottom pad) never see an ingest_run; enter them
  // into the ring here so they read as zero (= pad code 0).
  ensure_row(run.oy * stride + k - 1);
  // "One output pixel per clock cycle, until all the filters are applied
  // at this position" (§III-B1): one SIMD sweep over all O filters dots a
  // block of windows, and the run's count*O responses go straight into
  // the output stage, in scan order.
  const std::int64_t step = static_cast<std::int64_t>(stride) * chans;
  path_->dot_run(run.oy * stride, run.ox0 * step, step, k * chans, run.count,
                 stage()
                     .extend(static_cast<std::size_t>(run.count) *
                             static_cast<std::size_t>(node().out.c))
                     .data());
}

// ---------------------------------------------------------------- PoolKernel

PoolKernel::PoolKernel(const Node& node, Stream& in, PortRings outs,
                       std::size_t burst)
    : WindowKernel(node, in, std::move(outs), burst),
      ops_(simd::vec_ops()),
      is_max_(node.kind == NodeKind::MaxPool),
      ring_(scanner()),
      rows_(static_cast<std::size_t>(scanner().padded_w()) *
            static_cast<std::size_t>(node.in.c)) {
  QNN_CHECK(node.kind == NodeKind::MaxPool || node.kind == NodeKind::AvgPool,
            "PoolKernel needs a pooling node");
}

void PoolKernel::ingest_run(std::span<const std::int32_t> vals,
                            std::int64_t n) {
  ring_.store(scanner(), vals, n);
}

void PoolKernel::emit_run(const WindowScanner::Run& run) {
  // Max and wrapping sum are associative and commutative, so a window
  // reduces as its k column taps of the K rows combined. Every pixel's C
  // values are contiguous, so both steps are stride-1 combine_i32 calls
  // with the max/sum decision outside them. A window starts from its first
  // tap: codes are unsigned and padded entries hold code 0, the lowest
  // level, so that equals the reference's zero start. Sums wrap mod 2^32,
  // exactly as the int64 sum narrowed to the int32 output.
  const auto c = static_cast<std::size_t>(node().in.c);
  const int k = node().k;
  const auto stride = static_cast<std::size_t>(node().stride);
  const int py = run.oy * node().stride;
  const int px = run.ox0 * node().stride;
  const auto count = static_cast<std::size_t>(run.count);
  // Step 1: the K rows of the pixels the run's windows cover, once.
  const std::size_t span =
      ((count - 1) * stride + static_cast<std::size_t>(k)) * c;
  std::copy_n(ring_.pixel(py, px), span, rows_.begin());
  for (int dy = 1; dy < k; ++dy) {
    ops_.combine_i32(rows_.data(), ring_.pixel(py + dy, px), span, is_max_);
  }
  // Step 2: each window's k taps of the combined row.
  std::int32_t* out = stage().extend(count * c).data();
  for (std::size_t i = 0; i < count; ++i, out += c) {
    const std::int32_t* taps = rows_.data() + i * stride * c;
    std::copy_n(taps, c, out);
    for (int dx = 1; dx < k; ++dx) {
      ops_.combine_i32(out, taps + static_cast<std::size_t>(dx) * c, c,
                       is_max_);
    }
  }
}

// ----------------------------------------------------------------- AddKernel

AddKernel::AddKernel(const Node& node, Stream& in_main, Stream& in_skip,
                     PortRings outs, std::size_t burst_main,
                     std::size_t burst_skip)
    : Kernel(node.name),
      node_(node),
      main_(in_main),
      skip_(in_skip),
      burst_main_(std::max<std::size_t>(burst_main, 1)),
      burst_skip_(std::max<std::size_t>(burst_skip, 1)),
      stage_(std::move(outs), burst_skip_) {
  QNN_CHECK(node.kind == NodeKind::Add, "AddKernel needs an Add node");
}

void AddKernel::reset() {
  main_starve_ = {};
  skip_starve_ = {};
  stage_.clear();
  open_ = 0;
}

void AddKernel::bind_ready(ReadyHook* hook, int task) {
  main_.bind_consumer(hook, task);
  skip_.bind_consumer(hook, task);
  stage_.bind(hook, task);
}

StepResult AddKernel::step() {
  if (open_ == 0 && !stage_.flush()) return StepResult::kBlocked;
  bool progressed = false;
  for (int round = 0; round < kRoundsPerStep; ++round) {
    if (open_ == 0) {
      // Stage the next skip burst as it leaves the ring.
      open_ = skip_.try_pop_with(burst_skip_, [this](auto vals) {
        std::ranges::copy(vals, stage_.extend(vals.size()).begin());
      });
      if (open_ == 0) {
        if (!skip_.drained()) {
          skip_starve_.starved(skip_);
          return progressed ? StepResult::kProgress : StepResult::kBlocked;
        }
        // Both paths must end together: a leftover main value is a
        // protocol bug, but an as-yet-unclosed main just means we wait
        // for its close.
        std::int32_t extra = 0;
        QNN_CHECK(main_.try_pop_burst({&extra, 1}) == 0,
                  name() + ": skip stream ended before main");
        if (!main_.drained()) {
          return progressed ? StepResult::kProgress : StepResult::kBlocked;
        }
        stage_.close();
        return StepResult::kDone;
      }
      skip_starve_.fed();
    }
    // Add the regular path onto the staged skip values in place, straight
    // from the ring's own (narrow) elements.
    const auto sums = stage_.tail(open_);
    std::size_t i = 0;
    main_.try_pop_with(std::min(open_, burst_main_), [&](auto vals) {
      for (const auto v : vals) sums[i++] += v;
    });
    if (i == 0) {
      QNN_CHECK(!main_.drained(), name() + ": main stream ended before skip");
      main_starve_.starved(main_);
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    main_starve_.fed();
    open_ -= i;
    progressed = true;
    if (open_ == 0 && !stage_.flush()) return StepResult::kBlocked;
  }
  return StepResult::kProgress;
}

}  // namespace qnn
