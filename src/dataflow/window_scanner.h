// Shift-register window extraction over a depth-first pixel stream.
//
// Implements the input side of the convolution kernel in Figure 3: pixels
// arrive one channel value per transaction in depth-first order (channel
// fastest, then x, then y); padding positions are injected locally by the
// kernel ("the kernel stops the input stream and inputs padding values into
// the buffer instead", §III-B1). As soon as the bottom-right value of a
// window is present, the window is complete and an output position can be
// computed.
//
// The scanner itself tracks positions only: where the next value lands and
// which windows it completes. The values live in whichever line buffer the
// kernel keeps — bit- or byte-planes for conv (core/packed_planes.h), the
// int32 PixelRing below for pooling — each retaining exactly the last K
// rows of the padded map, the depth-first scan of §III-B1b whose buffer
// cost is
//     I * (W_padded * (K - 1) + K)
// values, versus Theta(I*W_padded + K) per *width* unit for a width-first
// scan (see fpga/resource_model.h for the accounting used in Fig 6).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "core/shape.h"

namespace qnn {

class WindowScanner {
 public:
  WindowScanner(Shape in, int k, int stride, int pad)
      : in_(in),
        k_(k),
        stride_(stride),
        pad_(pad),
        hp_(in.h + 2 * pad),
        wp_(in.w + 2 * pad),
        out_h_(conv_out_extent(in.h, k, stride, pad)),
        out_w_(conv_out_extent(in.w, k, stride, pad)) {
    QNN_CHECK(in.valid() && k >= 1 && stride >= 1 && pad >= 0,
              "invalid scanner geometry");
    QNN_CHECK(hp_ >= k && wp_ >= k, "window larger than padded input");
  }

  /// All padded positions consumed and no further windows will complete.
  [[nodiscard]] bool done() const { return y_ >= hp_; }

  /// True when the next value to enter the buffer is a padding value the
  /// kernel must inject itself (the input stream is halted meanwhile).
  [[nodiscard]] bool next_is_padding() const {
    QNN_DCHECK(!done(), "scanner exhausted");
    return y_ < pad_ || y_ >= pad_ + in_.h || x_ < pad_ || x_ >= pad_ + in_.w;
  }

  struct Completed {
    int oy;
    int ox;
  };

  /// The windows one advance_run completed: output row `oy`, columns
  /// ox0 .. ox0 + count - 1, in scan order (count 0: none).
  struct Run {
    int oy = 0;
    int ox0 = 0;
    int count = 0;
  };

  /// Number of consecutive scan positions starting at the cursor that take
  /// REAL stream values (no padding until at least the end of the current
  /// row's interior). Lets a burst-mode kernel ingest a row segment at a
  /// time without a per-value padding test; 0 when the next position is a
  /// padding injection or the scan is done. The segment size a kernel asks
  /// for is the edge's PLANNED burst (plan/fifo_plan.h, row-sized under
  /// adaptive mode — carried through the engine from the CompiledPlan when
  /// one is supplied), so ingest granularity is decided at plan time, not
  /// here.
  [[nodiscard]] std::int64_t real_run() const {
    if (done() || next_is_padding()) return 0;
    return static_cast<std::int64_t>(pad_ + in_.w - x_) * in_.c - c_;
  }

  /// Number of consecutive padding positions starting at the cursor, up to
  /// the next real value or the end of the padded row; 0 when the next
  /// position is real or the scan is done.
  [[nodiscard]] std::int64_t pad_run() const {
    if (done() || !next_is_padding()) return 0;
    const bool left_pad = y_ >= pad_ && y_ < pad_ + in_.h && x_ < pad_;
    return static_cast<std::int64_t>((left_pad ? pad_ : wp_) - x_) * in_.c -
           c_;
  }

  /// Advance the scan by one position (a real value or a padding
  /// injection). Returns the output position whose window just completed,
  /// if any.
  std::optional<Completed> advance() {
    const Run run = advance_run(1);
    if (run.count == 0) return std::nullopt;
    return Completed{run.oy, run.ox0};
  }

  /// Advance the scan by `n` positions of the current padded row in one
  /// step: a real run (n <= real_run()) or a padding stretch
  /// (n <= pad_run()). Returns every output position whose window's
  /// bottom-right pixel the run completed: all lie on one output row, at
  /// consecutive columns. A kernel stores the run's values into its line
  /// buffer before this call; storing a whole run ahead is safe: the rest
  /// of the row only overwrites entries of row y - K, which no window
  /// completed on row y reads. So the line buffer holds every window of
  /// the returned run at once, until the next run is stored.
  Run advance_run(std::int64_t n) {
    QNN_DCHECK(!done(), "advance past end of scan");
    QNN_DCHECK(n >= 1 && n <= std::max(pad_run(), real_run()),
               "run leaves the current real run or padding stretch");
    const std::int64_t c = in_.c;
    const std::int64_t pos = static_cast<std::int64_t>(x_) * c + c_;
    // Pixels x_ .. end/c - 1 completed; a window's bottom-right corner is
    // at row oy*stride + k - 1, column ox*stride + k - 1.
    const std::int64_t end = pos + n;
    Run run;
    const int ry = y_ - (k_ - 1);
    if (ry >= 0 && ry % stride_ == 0 && ry / stride_ < out_h_) {
      // Columns x_ .. last_x completed; the first window corner at or
      // after x_ and the last one at or before last_x bound the run.
      const int last_x = static_cast<int>(end / c) - 1;
      const int first = std::max(x_ - (k_ - 1), 0);
      const int ox0 = (first + stride_ - 1) / stride_;
      const int ox1 =
          last_x < k_ - 1 ? -1
                          : std::min((last_x - (k_ - 1)) / stride_, out_w_ - 1);
      if (ox1 >= ox0) run = Run{ry / stride_, ox0, ox1 - ox0 + 1};
    }
    // Advance the depth-first cursor.
    if (end == static_cast<std::int64_t>(wp_) * c) {
      x_ = 0;
      c_ = 0;
      ++y_;
    } else {
      x_ = static_cast<int>(end / c);
      c_ = static_cast<int>(end % c);
    }
    return run;
  }

  [[nodiscard]] std::int64_t window_values() const {
    return static_cast<std::int64_t>(k_) * k_ * in_.c;
  }
  [[nodiscard]] const Shape& in_shape() const { return in_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int out_h() const { return out_h_; }
  [[nodiscard]] int out_w() const { return out_w_; }
  [[nodiscard]] int padded_w() const { return wp_; }

  /// Padded row the cursor is currently on (0 <= cur_row < hp while the
  /// scan is live). A line buffer recycles its rows mod K keyed on this
  /// value.
  [[nodiscard]] int cur_row() const { return y_; }

  /// Cursor position within the current padded row, in values:
  /// (x * channels + c) over the padded width. This is the pack offset for
  /// the run about to be ingested via real_run().
  [[nodiscard]] std::int64_t row_value_pos() const {
    return static_cast<std::int64_t>(x_) * in_.c + c_;
  }

  /// Total padded positions scanned per image (pad injections included).
  [[nodiscard]] std::int64_t padded_values() const {
    return static_cast<std::int64_t>(hp_) * wp_ * in_.c;
  }
  /// Padding values injected locally per image.
  [[nodiscard]] std::int64_t padding_values() const {
    return padded_values() - in_.elems();
  }

  /// The paper's depth-first buffer size (§III-B1b) on the padded map:
  /// I*(W_p*(K-1) + K) values retained.
  [[nodiscard]] std::int64_t paper_buffer_values() const {
    return static_cast<std::int64_t>(in_.c) *
           (static_cast<std::int64_t>(wp_) * (k_ - 1) + k_);
  }

  /// Reset for the next image.
  void reset() {
    y_ = x_ = c_ = 0;
  }

 private:
  Shape in_;
  int k_;
  int stride_;
  int pad_;
  int hp_;
  int wp_;
  int out_h_;
  int out_w_;
  int y_ = 0;
  int x_ = 0;
  int c_ = 0;
};

/// The int32 line buffer of a depth-first scan: the last K padded rows,
/// recycled mod K, each pixel's C values contiguous. The pooling kernel
/// stores every run here (padding as code 0) just before the scanner
/// advances over it, then reduces each completed window tap by tap.
class PixelRing {
 public:
  explicit PixelRing(const WindowScanner& scan)
      : k_(scan.k()),
        row_values_(static_cast<std::int64_t>(scan.padded_w()) *
                    scan.in_shape().c),
        channels_(scan.in_shape().c),
        ring_(static_cast<std::size_t>(k_ * row_values_)) {}

  /// Store the `n` values about to be scanned at `scan`'s cursor: `vals`
  /// for a real run, code 0 for a padding stretch (`vals` empty).
  void store(const WindowScanner& scan, std::span<const std::int32_t> vals,
             std::int64_t n) {
    const auto at = ring_.begin() + static_cast<std::ptrdiff_t>(
                                        (scan.cur_row() % k_) * row_values_ +
                                        scan.row_value_pos());
    if (vals.empty()) {
      std::fill_n(at, n, std::int32_t{0});
    } else {
      std::copy_n(vals.begin(), n, at);
    }
  }

  /// The C values of padded pixel (py, px); py must be one of the last K
  /// rows scanned.
  [[nodiscard]] const std::int32_t* pixel(int py, int px) const {
    return ring_.data() + (py % k_) * row_values_ +
           static_cast<std::int64_t>(px) * channels_;
  }

 private:
  int k_;
  std::int64_t row_values_;
  int channels_;
  std::vector<std::int32_t> ring_;
};

}  // namespace qnn
