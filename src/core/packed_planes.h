// Persistently packed bit-plane storage for the streaming conv datapath.
//
// Re-binarizing every activation of every window would walk k*k*I values
// per output pixel, decomposing each input value k*k times at stride 1.
// Here each activation is decomposed exactly once, as its row streams in:
//
//   BitPlaneLineBuffer — per plane, the last K padded rows of the input map
//     packed one bit per value, recycled mod K exactly like the dataflow
//     window scanner's row ring (§III-B2 of the paper).
//   PackedWindow — a window's plane words, assembled from the line buffer by
//     K contiguous bit-range splices per plane (word funnel shifts, never a
//     re-pack), with each plane's popcount cached at finalize time.
//   PackedFilters — packed weights in the filter-lane layout (eight filters
//     interleaved per word), laid out once at kernel construction so one
//     vec_ops dot_window call sweeps all planes of a window against all O
//     filters, eight filters per vector.
//
// Bit layout matches FilterBank: depth-first (dy, dx, ci)
// within a window, (x, ci) within a line-buffer row. Padding is code 0,
// whose bits are zero in every plane, so cleared rows/ranges are already
// correct for padded regions.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/bitops.h"
#include "core/error.h"
#include "core/simd/vec_ops.h"

namespace qnn {

/// Rolling packed rows: `planes` bit-planes of `rows` padded rows of
/// `row_bits` values each. Rows are recycled mod `rows` by the caller.
class BitPlaneLineBuffer {
 public:
  static constexpr int kMaxPlanes = 16;

  BitPlaneLineBuffer(int planes, int rows, std::int64_t row_bits)
      : planes_(planes),
        rows_(rows),
        row_words_(words_for_bits(row_bits)),
        data_(static_cast<std::size_t>(planes) * static_cast<std::size_t>(rows) *
                  static_cast<std::size_t>(row_words_),
              0) {
    QNN_CHECK(planes >= 1 && planes <= kMaxPlanes,
              "line buffer plane count out of range");
    QNN_CHECK(rows >= 1 && row_bits >= 1, "empty line buffer");
  }

  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] std::int64_t row_words() const { return row_words_; }

  [[nodiscard]] const Word* row(int plane, int r) const {
    return data_.data() + (static_cast<std::size_t>(plane) *
                               static_cast<std::size_t>(rows_) +
                           static_cast<std::size_t>(r)) *
                              static_cast<std::size_t>(row_words_);
  }

  /// Zero row `r` in every plane (re-entering the ring: padding = all-zero).
  void clear_row(int r) {
    for (int p = 0; p < planes_; ++p) {
      std::memset(mutable_row(p, r), 0,
                  static_cast<std::size_t>(row_words_) * sizeof(Word));
    }
  }

  /// OR-pack a run of activation codes into row `r` starting at bit
  /// position `start` (one bit per value per plane). The target range must
  /// have been cleared since the row was last recycled; runs never overlap.
  void pack_run(int r, std::int64_t start, std::span<const std::int32_t> vals) {
    std::int64_t pos = start;
    std::size_t i = 0;
    while (i < vals.size()) {
      const std::int64_t wi = pos / kWordBits;
      const int off = static_cast<int>(pos % kWordBits);
      const int n = static_cast<int>(
          std::min<std::int64_t>(static_cast<std::int64_t>(vals.size() - i),
                                 kWordBits - off));
      // Accumulate the <=64-bit chunk for all planes in registers, then OR
      // each plane's word once — one pass over the values, planes_ stores.
      std::array<Word, kMaxPlanes> chunk{};
      for (int j = 0; j < n; ++j) {
        const auto v = static_cast<std::uint32_t>(vals[i + static_cast<std::size_t>(j)]);
        for (int p = 0; p < planes_; ++p) {
          chunk[static_cast<std::size_t>(p)] |=
              static_cast<Word>((v >> p) & 1u) << j;
        }
      }
      for (int p = 0; p < planes_; ++p) {
        mutable_row(p, r)[wi] |= chunk[static_cast<std::size_t>(p)] << off;
      }
      pos += n;
      i += static_cast<std::size_t>(n);
    }
  }

 private:
  [[nodiscard]] Word* mutable_row(int plane, int r) {
    return data_.data() + (static_cast<std::size_t>(plane) *
                               static_cast<std::size_t>(rows_) +
                           static_cast<std::size_t>(r)) *
                              static_cast<std::size_t>(row_words_);
  }

  int planes_;
  int rows_;
  std::int64_t row_words_;
  std::vector<Word> data_;
};

/// Packed +-1 weights in the filter-lane layout: filters are taken in
/// groups of simd::kFilterLanes, and within a group word j of all eight
/// filters sits side by side, [group][word][lane] — one vector load feeds
/// eight filters. The count is padded to a multiple of eight with zero
/// filters, whose lanes the caller ignores. Built once at kernel
/// construction from the FilterBank's BitVectors (whose tail-zero invariant
/// carries over, so no per-dot masking is needed on the weight side).
class PackedFilters {
 public:
  static constexpr std::size_t kLanes = simd::kFilterLanes;

  PackedFilters(std::int64_t bits_per_filter, int count)
      : words_(static_cast<std::size_t>(words_for_bits(bits_per_filter))),
        groups_((static_cast<std::size_t>(count) + kLanes - 1) / kLanes),
        data_(groups_ * words_ * kLanes, 0) {}

  /// Words per filter (= per window bit-plane).
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t groups() const { return groups_; }
  [[nodiscard]] std::size_t padded_count() const { return groups_ * kLanes; }
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
  std::size_t groups_;
  std::vector<Word> data_;
};

/// One window's plane words, spliced from a BitPlaneLineBuffer, with each
/// plane's popcount cached once per window (finalize).
class PackedWindow {
 public:
  PackedWindow(std::int64_t values, int planes)
      : values_(values),
        planes_(planes),
        plane_words_(words_for_bits(values)),
        data_(static_cast<std::size_t>(planes) *
                  static_cast<std::size_t>(plane_words_),
              0),
        pops_(static_cast<std::size_t>(planes), 0) {
    QNN_CHECK(values >= 1 && planes >= 1, "empty packed window");
  }

  [[nodiscard]] std::int64_t values() const { return values_; }
  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] std::int64_t plane_words() const { return plane_words_; }

  /// Splice `len` bits of line row (`plane`, `r`) starting at bit `src_bit`
  /// into this window's plane at bit `dst_bit`.
  void splice(const BitPlaneLineBuffer& lines, int p, int r,
              std::int64_t src_bit, std::int64_t dst_bit, std::int64_t len) {
    copy_bits(lines.row(p, r), src_bit, mutable_plane(p), dst_bit, len);
  }

  /// Mask the tail word of every plane and cache per-plane popcounts.
  /// Call once after the window's splices, before dot.
  void finalize(const simd::VecOps& ops) {
    const int tail = static_cast<int>(values_ % kWordBits);
    for (int p = 0; p < planes_; ++p) {
      Word* words = mutable_plane(p);
      if (tail != 0) words[plane_words_ - 1] &= low_mask(tail);
      pops_[static_cast<std::size_t>(p)] = static_cast<std::int64_t>(
          ops.popcount(words, static_cast<std::size_t>(plane_words_)));
    }
  }

  /// XNOR-popcount dot of this window against every filter of `filters`
  /// in one dot_window call; acc[f] receives the signed fixed-point dot
  /// (sum over planes of 2^p * pm1 agreement score). `acc` must hold
  /// filters.padded_count() entries (the zero pad filters' lanes included).
  void dot(const simd::VecOps& ops, const PackedFilters& filters,
           std::int64_t* acc) const {
    QNN_DCHECK(filters.words() == static_cast<std::size_t>(plane_words_),
               "filter width does not match the window");
    ops.dot_window(data_.data(), static_cast<std::size_t>(plane_words_),
                   planes_, pops_.data(), filters.data(), filters.groups(),
                   acc);
  }

 private:
  [[nodiscard]] Word* mutable_plane(int p) {
    return data_.data() +
           static_cast<std::size_t>(p) * static_cast<std::size_t>(plane_words_);
  }

  std::int64_t values_;
  int planes_;
  std::int64_t plane_words_;
  std::vector<Word> data_;
  std::vector<std::int64_t> pops_;
};

}  // namespace qnn
