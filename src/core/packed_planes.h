// Persistently packed storage for the two streaming conv datapaths. A conv
// picks one at construction from its input width (dataflow/kernels.h):
// 1- and 2-bit codes (the paper's activations, §III-B1) go bit-plane,
// 3..16-bit codes (the 8-bit image layer above all) go byte-plane.
//
// Re-decomposing every activation of every window would walk k*k*I values
// per output pixel, decomposing each input value k*k times at stride 1.
// Here each activation is decomposed exactly once, as its row streams in.
//
// Bit-plane path (1-2 planes, simd::kMaxPlanes):
//   BitPlaneLineBuffer — the last K padded rows of the input map packed one
//     bit per value per plane, recycled mod K like the window scanner's
//     cursor (§III-B2 of the paper). Each <=64-code chunk of a run is one
//     vec_ops pack_codes call: a mask test per plane per 16 codes
//     (AVX-512) or 8 (AVX2), eight codes per multiply in the scalar
//     reference.
//   PackedWindow — a window's words, built from the line buffer in one pass
//     over its K row segments, the ring row wrapping without a division:
//     one memcpy per segment when it is word-aligned, else vec_ops
//     build_window's funnel shift per <=64-bit chunk, both planes of a
//     chunk side by side in one vector.
//   PackedFilters — packed weights in the filter-lane layout (eight filters
//     interleaved per word), laid out once at kernel construction so one
//     vec_ops dot_window call sweeps all planes of a window against all O
//     filters, eight filters per vector, and writes the O int32 responses
//     straight to the caller's buffer. Its bank is 64-byte aligned, so each
//     zmm weight load is one cache line: the AVX-512 dot walks the words
//     outermost, loads each group's weight vector once for both planes of
//     both windows of a pair and keeps four groups (32 filters) in flight,
//     near the ~0.67 popcounts per cycle that AND + VPOPCNTQ + ADD on
//     ports 0/5 allow. It is the only aligned buffer: the dot loads the
//     window by broadcast words, and the line buffers and windows stay
//     plain vectors.
//
// Line-buffer rows and windows are plane-interleaved, [word][plane]: word j
// of every plane sits side by side, so one window row segment is one
// contiguous run of words for all planes at once, and the window build
// writes each destination word exactly once. Bit layout within a plane
// matches FilterBank: depth-first (dy, dx, ci) within a window, (x, ci)
// within a line-buffer row. Padding is code 0, whose bits are zero in
// every plane, so cleared rows are already correct for padded regions.
//
// Byte path (1-2 byte-planes: low byte, high byte):
//   ByteLineBuffer — the last K padded rows as one byte per value per
//     byte-plane, recycled mod K and zero-cleared on entry the same way.
//   ByteWindow — a window's bytes per byte-plane, K memcpys of K*C bytes
//     each, in a buffer padded to a multiple of four bytes whose pad stays
//     zero.
//   ByteFilters — the same 1-bit weights, one mask word per 16 filters x 4
//     values in vpdpbusd lane order, so one vec_ops dot_bytes call expands
//     each word into 64 bytes of 0/-1, once for a pair of windows, and
//     sweeps all O filters. An int8 weight layout would skip the
//     expansion, at 8x the weight memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "core/bitops.h"
#include "core/error.h"
#include "core/simd/vec_ops.h"

namespace qnn {

/// Rolling packed rows: `rows` padded rows of `row_bits` values each, every
/// row stored plane-interleaved as [word][plane]. Rows are recycled mod
/// `rows` by the caller.
class BitPlaneLineBuffer {
 public:
  static constexpr int kMaxPlanes = simd::kMaxPlanes;

  BitPlaneLineBuffer(int planes, int rows, std::int64_t row_bits)
      : planes_(planes), rows_(rows), row_words_(words_for_bits(row_bits)) {
    QNN_CHECK(planes >= 1 && planes <= kMaxPlanes,
              "line buffer plane count out of range");
    QNN_CHECK(rows >= 1 && row_bits >= 1, "empty line buffer");
    data_.assign(static_cast<std::size_t>(rows) * row_size(), 0);
  }

  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] int rows() const { return rows_; }
  /// Words per plane of one row.
  [[nodiscard]] std::int64_t row_words() const { return row_words_; }
  /// Words of one row, all planes (the distance between rows).
  [[nodiscard]] std::size_t row_size() const {
    return static_cast<std::size_t>(row_words_) *
           static_cast<std::size_t>(planes_);
  }

  /// Row `r`: word j of plane p at [j * planes() + p].
  [[nodiscard]] const Word* row(int r) const {
    return data_.data() + row_offset(r);
  }

  /// Zero row `r` (re-entering the ring: padding = all-zero).
  void clear_row(int r) {
    std::memset(data_.data() + row_offset(r), 0,
                row_size() * sizeof(Word));
  }

  /// OR-pack a run of activation codes into row `r` starting at bit
  /// position `start` (one bit per value per plane), one ops.pack_codes
  /// call per <=64-bit chunk. The target range must have been cleared
  /// since the row was last recycled; runs never overlap. Code bits at or
  /// above planes() are ignored.
  void pack_run(const simd::VecOps& ops, int r, std::int64_t start,
                std::span<const std::int32_t> vals) {
    const auto planes = static_cast<std::size_t>(planes_);
    Word* row_words = data_.data() + row_offset(r);
    std::int64_t pos = start;
    for (std::size_t i = 0; i < vals.size();) {
      const int off = static_cast<int>(pos % kWordBits);
      const int n = static_cast<int>(
          std::min<std::int64_t>(static_cast<std::int64_t>(vals.size() - i),
                                 kWordBits - off));
      ops.pack_codes(vals.data() + i, n, planes_, off,
                     row_words + static_cast<std::size_t>(pos / kWordBits) *
                                     planes);
      pos += n;
      i += static_cast<std::size_t>(n);
    }
  }

 private:
  [[nodiscard]] std::size_t row_offset(int r) const {
    return static_cast<std::size_t>(r) * row_size();
  }

  int planes_;
  int rows_;
  std::int64_t row_words_;
  std::vector<Word> data_;
};

/// Storage aligned to one 64-byte cache line (one zmm load).
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <class U>
  constexpr CacheLineAllocator(
      const CacheLineAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), kAlign);
  }
  template <class U>
  bool operator==(const CacheLineAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// Packed +-1 weights in the filter-lane layout: filters are taken in
/// groups of simd::kFilterLanes, and within a group word j of all eight
/// filters sits side by side, [group][word][lane] — one vector load feeds
/// eight filters. The count is padded to a multiple of eight with zero
/// filters, whose lanes dot_window computes but never writes out. Built
/// once at kernel construction from the FilterBank's BitVectors (whose
/// tail-zero invariant carries over, so no per-dot masking is needed on the
/// weight side). The bank starts on a 64-byte boundary, so no weight vector
/// splits a cache line; dot_window does not require it.
class PackedFilters {
 public:
  static constexpr std::size_t kLanes = simd::kFilterLanes;

  PackedFilters(std::int64_t bits_per_filter, int count)
      : words_(static_cast<std::size_t>(words_for_bits(bits_per_filter))),
        count_(static_cast<std::size_t>(count)),
        data_(padded_count() * words_, 0) {}

  /// Words per filter (= per window bit-plane).
  [[nodiscard]] std::size_t words() const { return words_; }
  /// Filters, not counting the zero pad.
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Filters including the zero pad: a whole number of lane groups.
  [[nodiscard]] std::size_t padded_count() const {
    return (count_ + kLanes - 1) / kLanes * kLanes;
  }
  [[nodiscard]] const Word* data() const { return data_.data(); }

  /// Scatter filter `f`'s packed words (words() of them) into its lane.
  void set(int f, std::span<const Word> filter_words) {
    QNN_CHECK(filter_words.size() == words_, "packed filter width mismatch");
    const auto fi = static_cast<std::size_t>(f);
    Word* lane = data_.data() + (fi / kLanes) * words_ * kLanes + fi % kLanes;
    for (std::size_t j = 0; j < words_; ++j) lane[j * kLanes] = filter_words[j];
  }

 private:
  std::size_t words_;
  std::size_t count_;
  std::vector<Word, CacheLineAllocator<Word>> data_;
};

/// One window's words, plane-interleaved [word][plane], built from a
/// BitPlaneLineBuffer holding its K rows.
class PackedWindow {
 public:
  PackedWindow(std::int64_t values, int planes)
      : values_(values),
        planes_(planes),
        plane_words_(words_for_bits(values)) {
    QNN_CHECK(values >= 1 && planes >= 1 &&
                  planes <= BitPlaneLineBuffer::kMaxPlanes,
              "packed window shape out of range");
    data_.assign(static_cast<std::size_t>(planes) *
                     static_cast<std::size_t>(plane_words_),
                 0);
  }

  [[nodiscard]] std::int64_t values() const { return values_; }
  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] std::int64_t plane_words() const { return plane_words_; }
  /// Word j of plane p at [j * planes() + p].
  [[nodiscard]] const Word* data() const { return data_.data(); }

  /// Build the window from `lines`: window row dy is `seg` bits of line row
  /// (top + dy) mod lines.rows() starting at bit `src_bit`, for dy in
  /// [0, lines.rows()), concatenated, with the bits past values() zero.
  void build(const simd::VecOps& ops, const BitPlaneLineBuffer& lines,
             int top, std::int64_t src_bit, std::int64_t seg) {
    const int k = lines.rows();
    QNN_DCHECK(lines.planes() == planes_ &&
                   static_cast<std::int64_t>(k) * seg == values_,
               "window does not match the line buffer");
    int r = top % k;  // then wraps, with no division per row
    if (src_bit % kWordBits != 0 || seg % kWordBits != 0) {
      ops.build_window(lines.row(0), lines.row_size(), k, r, src_bit, seg,
                       planes_, data_.data());
      return;
    }
    // Word-aligned segments (a multiple of 64 channels): each one is a
    // contiguous run of its row's words, all planes at once.
    const auto run = static_cast<std::size_t>(seg / kWordBits) *
                     static_cast<std::size_t>(planes_);
    const auto from = static_cast<std::size_t>(src_bit / kWordBits) *
                      static_cast<std::size_t>(planes_);
    for (int dy = 0; dy < k; ++dy) {
      std::memcpy(data_.data() + static_cast<std::size_t>(dy) * run,
                  lines.row(r) + from, run * sizeof(Word));
      if (++r == k) r = 0;
    }
  }

  /// XNOR-popcount dot of this window against every filter of `filters`
  /// in one dot_window call; out[f] receives the signed fixed-point dot
  /// (sum over planes of 2^p * pm1 agreement score) as int32, for exactly
  /// filters.count() entries. A `pair` window of the same shape is dotted
  /// in the same call, its responses following at out[filters.count()..).
  void dot(const simd::VecOps& ops, const PackedFilters& filters,
           std::int32_t* out, const PackedWindow* pair = nullptr) const {
    QNN_DCHECK(filters.words() == static_cast<std::size_t>(plane_words_) &&
                   (pair == nullptr || (pair->planes_ == planes_ &&
                                        pair->plane_words_ == plane_words_)),
               "filter width does not match the window");
    ops.dot_window(data_.data(), static_cast<std::size_t>(plane_words_),
                   planes_, filters.data(), filters.count(), out,
                   pair != nullptr ? pair->data() : nullptr,
                   pair != nullptr ? out + filters.count() : nullptr);
  }

 private:
  std::int64_t values_;
  int planes_;
  std::int64_t plane_words_;
  std::vector<Word> data_;
};

/// Rolling byte rows: `rows` padded rows of `row_values` codes of `bits`
/// (1..16) bits each, one byte per value per byte-plane, every row stored
/// [plane][value]. Rows are recycled mod `rows` by the caller.
class ByteLineBuffer {
 public:
  static constexpr int kMaxBits = 8 * simd::kMaxBytePlanes;

  ByteLineBuffer(int bits, int rows, std::int64_t row_values)
      : bits_(bits), planes_((bits + 7) / 8), rows_(rows),
        row_values_(row_values) {
    QNN_CHECK(bits >= 1 && bits <= kMaxBits,
              "byte line buffer code width out of range");
    QNN_CHECK(rows >= 1 && row_values >= 1, "empty byte line buffer");
    data_.assign(static_cast<std::size_t>(rows) * row_size(), 0);
  }

  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] std::int64_t row_values() const { return row_values_; }
  /// Bytes of one row, all planes (the distance between rows).
  [[nodiscard]] std::size_t row_size() const {
    return static_cast<std::size_t>(planes_) *
           static_cast<std::size_t>(row_values_);
  }

  /// Plane `q` of row `r`: byte q of value x's code at [x].
  [[nodiscard]] const std::uint8_t* row(int r, int q) const {
    return data_.data() + row_offset(r) +
           static_cast<std::size_t>(q) * static_cast<std::size_t>(row_values_);
  }

  /// Zero row `r` (re-entering the ring: padding = all-zero).
  void clear_row(int r) {
    std::memset(data_.data() + row_offset(r), 0, row_size());
  }

  /// Store a run of codes into row `r` from value position `start`, byte q
  /// of each code into plane q. Code bits at or above the code width are
  /// ignored.
  void pack_run(int r, std::int64_t start,
                std::span<const std::int32_t> vals) {
    const auto mask = static_cast<std::uint32_t>(low_mask(bits_));
    std::uint8_t* dst =
        data_.data() + row_offset(r) + static_cast<std::size_t>(start);
    for (int q = 0; q < planes_; ++q) {
      for (std::size_t i = 0; i < vals.size(); ++i) {
        dst[i] = static_cast<std::uint8_t>(
            (static_cast<std::uint32_t>(vals[i]) & mask) >> (8 * q));
      }
      dst += row_values_;
    }
  }

 private:
  [[nodiscard]] std::size_t row_offset(int r) const {
    return static_cast<std::size_t>(r) * row_size();
  }

  int bits_;
  int planes_;
  int rows_;
  std::int64_t row_values_;
  std::vector<std::uint8_t> data_;
};

/// The byte path's 1-bit weights: filters in groups of simd::kByteLanes,
/// one mask word per group per quad of values, [group][quad]; bit 4*l + j
/// of word (g, v) is the sign bit of filter 16*g + l at value 4*v + j
/// (vpdpbusd's lane order). The filter count is padded to a whole group
/// with zero filters, whose lanes dot_bytes never writes out.
class ByteFilters {
 public:
  static constexpr std::size_t kLanes = simd::kByteLanes;

  ByteFilters(std::int64_t values, int count)
      : quads_(static_cast<std::size_t>((values + 3) / 4)),
        words_(static_cast<std::size_t>(words_for_bits(values))),
        count_(static_cast<std::size_t>(count)),
        data_((count_ + kLanes - 1) / kLanes * quads_, 0) {}

  /// Quads of values per filter (= per window byte-plane / 4).
  [[nodiscard]] std::size_t quads() const { return quads_; }
  /// Filters, not counting the zero pad.
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] const Word* data() const { return data_.data(); }

  /// Place filter `f`'s sign bits, given as its packed BitVector words
  /// (ceil(values / 64) of them), four values per mask word.
  void set(int f, std::span<const Word> filter_words) {
    QNN_CHECK(filter_words.size() == words_, "byte filter width mismatch");
    const auto fi = static_cast<std::size_t>(f);
    Word* group = data_.data() + fi / kLanes * quads_;
    const auto shift = static_cast<int>(4 * (fi % kLanes));
    for (std::size_t v = 0; v < quads_; ++v) {
      const Word nibble = (filter_words[v / 16] >> (4 * (v % 16))) & 0xfU;
      group[v] = (group[v] & ~(Word{0xf} << shift)) | (nibble << shift);
    }
  }

 private:
  std::size_t quads_;
  std::size_t words_;
  std::size_t count_;
  std::vector<Word> data_;
};

/// One window's bytes per byte-plane, plane after plane, each plane padded
/// with zero bytes to a multiple of four; built from a ByteLineBuffer
/// holding its K rows.
class ByteWindow {
 public:
  ByteWindow(std::int64_t values, int planes)
      : values_(values), planes_(planes), quads_((values + 3) / 4) {
    QNN_CHECK(values >= 1 && planes >= 1 && planes <= simd::kMaxBytePlanes,
              "byte window shape out of range");
    data_.assign(static_cast<std::size_t>(planes) * plane_size(), 0);
  }

  [[nodiscard]] std::int64_t values() const { return values_; }
  [[nodiscard]] int planes() const { return planes_; }
  /// Plane q's byte i at [q * plane_size() + i].
  [[nodiscard]] const std::uint8_t* data() const { return data_.data(); }
  /// Bytes of one plane, the zero pad included.
  [[nodiscard]] std::size_t plane_size() const {
    return 4 * static_cast<std::size_t>(quads_);
  }

  /// Build the window from `lines`: window row dy is `seg` values of line
  /// row (top + dy) mod lines.rows() starting at value `src`, for dy in
  /// [0, lines.rows()), concatenated — one memcpy per row per plane.
  void build(const ByteLineBuffer& lines, int top, std::int64_t src,
             std::int64_t seg) {
    const int k = lines.rows();
    QNN_DCHECK(lines.planes() == planes_ &&
                   static_cast<std::int64_t>(k) * seg == values_,
               "window does not match the line buffer");
    const auto n = static_cast<std::size_t>(seg);
    for (int q = 0; q < planes_; ++q) {
      std::uint8_t* dst = data_.data() + static_cast<std::size_t>(q) *
                                             plane_size();
      int r = top % k;  // then wraps, with no division per row
      for (int dy = 0; dy < k; ++dy) {
        std::memcpy(dst + static_cast<std::size_t>(dy) * n,
                    lines.row(r, q) + src, n);
        if (++r == k) r = 0;
      }
    }
  }

  /// Signed dot of this window's codes against every filter of `filters`
  /// in one dot_bytes call: exactly filters.count() int32 responses. A
  /// `pair` window of the same shape is dotted in the same call, its
  /// responses following at out[filters.count()..).
  void dot(const simd::VecOps& ops, const ByteFilters& filters,
           std::int32_t* out, const ByteWindow* pair = nullptr) const {
    QNN_DCHECK(filters.quads() == static_cast<std::size_t>(quads_) &&
                   (pair == nullptr || (pair->planes_ == planes_ &&
                                        pair->quads_ == quads_)),
               "filter width does not match the window");
    ops.dot_bytes(data_.data(), static_cast<std::size_t>(quads_), planes_,
                  filters.data(), filters.count(), out,
                  pair != nullptr ? pair->data() : nullptr,
                  pair != nullptr ? out + filters.count() : nullptr);
  }

 private:
  std::int64_t values_;
  int planes_;
  std::int64_t quads_;
  std::vector<std::uint8_t> data_;
};

}  // namespace qnn
