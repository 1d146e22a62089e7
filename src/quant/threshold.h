// Folded BatchNorm + n-bit activation: the threshold unit of §III-B3.
//
// Following FINN's observation extended to multi-bit activations, the
// composition  code = Quantize(BatchNorm(a))  over integer pre-activations a
// is a monotone staircase. It is fully determined by two per-channel
// parameters — tau_k = mu_k - B_k/(gamma_k * i_k) (the zero crossing) and
// Delta_k = d / (gamma_k * i_k) (the pre-activation step between adjacent
// endpoints) — from which the 2^n - 1 integer comparison thresholds
// T_alpha = tau + alpha * Delta are derived. The hardware evaluates the code
// with an n-deep binary search (an n-input comparator + 2^n -> 1 mux).
//
// This module performs the folding and provides a bit-exact software
// evaluation used both by the golden reference executor and the dataflow
// kernels, so the two engines agree by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/simd/vec_ops.h"
#include "quant/batchnorm.h"
#include "quant/quantizer.h"

namespace qnn {

/// The paper's two-parameter hardware representation (stored per channel as
/// a single 64-bit word: two 32-bit fixed-point values, §III-B1a).
struct TwoParamForm {
  double tau = 0.0;    // pre-activation value where BatchNorm output is 0
  double delta = 0.0;  // pre-activation step between adjacent endpoints

  friend bool operator==(const TwoParamForm&, const TwoParamForm&) = default;
};

/// Per-channel folded threshold activation over integer pre-activations.
class ThresholdActivation {
 public:
  ThresholdActivation() = default;

  /// Fold BatchNorm parameters and a uniform quantizer into thresholds.
  static ThresholdActivation fold(const BnParams& bn, const ActQuantizer& q);

  /// Rebuild from the two-parameter hardware form (sign of the BatchNorm
  /// slope must be supplied as it is implicit in Delta's sign).
  static ThresholdActivation from_two_param(const TwoParamForm& tp, int bits);

  /// Evaluate the folded staircase on an integer pre-activation. The
  /// negated-slope comparison runs in int64, so INT32_MIN is exact.
  [[nodiscard]] std::int32_t eval(std::int32_t a) const;

  /// Evaluate via explicit binary search over the threshold array — the
  /// literal hardware algorithm (§III-B3). Bit-identical to eval().
  [[nodiscard]] std::int32_t eval_binary_search(std::int32_t a) const;

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] bool is_constant() const { return sign_ == 0; }
  [[nodiscard]] std::int32_t constant_code() const { return constant_code_; }
  /// Ascending thresholds in the (sign-adjusted) comparison domain.
  [[nodiscard]] const std::vector<std::int32_t>& thresholds() const {
    return thresholds_;
  }
  [[nodiscard]] int sign() const { return sign_; }

  /// Export the two-parameter form (tau, Delta) the hardware would store.
  [[nodiscard]] TwoParamForm two_param() const { return two_param_; }

  friend bool operator==(const ThresholdActivation&,
                         const ThresholdActivation&) = default;

 private:
  int bits_ = 2;
  // sign = +1: code = #{alpha : a >= T_alpha}
  // sign = -1: same with a replaced by -a (negative BatchNorm slope)
  // sign =  0: code is constant (degenerate zero slope)
  int sign_ = 0;
  std::int32_t constant_code_ = 0;
  std::vector<std::int32_t> thresholds_;  // ascending, size 2^bits - 1
  TwoParamForm two_param_;
};

/// Folded thresholds for every output channel of one layer.
class ThresholdLayer {
 public:
  ThresholdLayer() = default;
  static ThresholdLayer fold(const BnLayerParams& bn, const ActQuantizer& q);

  [[nodiscard]] int channels() const {
    return static_cast<int>(per_channel_.size());
  }
  [[nodiscard]] const ThresholdActivation& at(int c) const {
    QNN_DCHECK(c >= 0 && c < channels(), "channel out of range");
    return per_channel_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] int bits() const {
    return per_channel_.empty() ? 0 : per_channel_.front().bits();
  }

  void push_back(ThresholdActivation t) {
    per_channel_.push_back(std::move(t));
  }

 private:
  std::vector<ThresholdActivation> per_channel_;
};

/// Every channel of a ThresholdLayer in the layout
/// VecOps::threshold_codes evaluates, vectorised over channels: the
/// thresholds as [level][channel] (one row of `channels()` values per
/// level) plus a comparison sign per channel (+1, -1, or 0 for a constant
/// channel). The code of pre-activation a in channel c is
///   #{ l : s_c * a >= T_l }
/// — for ascending T exactly the binary search of §III-B3, one level per
/// comparator. The rows hold each channel's thresholds in the domain the
/// routine compares in: T_l itself for s_c = +1; T_l - 1 (saturating at
/// INT32_MIN) for s_c = -1, whose input is ~a = -a - 1, so INT32_MIN needs
/// no widening; and for a constant channel, whose input is 0,
/// `constant_code` INT32_MIN entries followed by INT32_MAX. Bit-identical
/// to ThresholdActivation::eval_binary_search.
class ThresholdTable {
 public:
  explicit ThresholdTable(const ThresholdLayer& layer);

  [[nodiscard]] int channels() const { return channels_; }
  [[nodiscard]] int levels() const { return levels_; }

  /// codes[i] = the code of a[i] in channel c0 + i, for a stretch of
  /// consecutive channels (c0 + a.size() <= channels()). `codes` may
  /// alias `a`.
  void eval(const simd::VecOps& ops, int c0, std::span<const std::int32_t> a,
            std::int32_t* codes) const {
    QNN_DCHECK(c0 >= 0 && static_cast<std::size_t>(c0) + a.size() <=
                              static_cast<std::size_t>(channels_),
               "channel stretch out of range");
    const auto c = static_cast<std::size_t>(c0);
    ops.threshold_codes(a.data(), a.size(), sign_.data() + c, t_.data() + c,
                        static_cast<std::size_t>(channels_), levels_, codes);
  }

 private:
  int channels_ = 0;
  int levels_ = 0;  // 2^bits - 1
  std::vector<std::int32_t> sign_;
  std::vector<std::int32_t> t_;  // [level][channel]
};

}  // namespace qnn
