#include "quant/threshold.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qnn {
namespace {

/// Saturating ceil(x) -> int32. Pre-activations of any layer we build are
/// bounded by K*K*I * max_code (< 2^21), so saturation only normalizes
/// pathological BatchNorm parameters in property tests.
std::int32_t ceil_to_i32(double x) {
  const double c = std::ceil(x);
  if (c >= static_cast<double>(std::numeric_limits<std::int32_t>::max())) {
    return std::numeric_limits<std::int32_t>::max();
  }
  if (c <= static_cast<double>(std::numeric_limits<std::int32_t>::min())) {
    return std::numeric_limits<std::int32_t>::min();
  }
  return static_cast<std::int32_t>(c);
}

}  // namespace

ThresholdActivation ThresholdActivation::fold(const BnParams& bn,
                                              const ActQuantizer& q) {
  ThresholdActivation t;
  t.bits_ = q.bits();
  const double s = bn.slope();
  const double c = bn.intercept();
  const double d = q.range_size();
  const int m = q.max_code();  // number of endpoints = 2^n - 1

  if (s == 0.0) {
    t.sign_ = 0;
    t.constant_code_ = q.code(c);
    t.two_param_ = TwoParamForm{0.0, 0.0};
    return t;
  }

  t.two_param_ = TwoParamForm{-c / s, d / s};
  t.sign_ = s > 0.0 ? +1 : -1;
  t.thresholds_.reserve(static_cast<std::size_t>(m));
  for (int alpha = 1; alpha <= m; ++alpha) {
    // Endpoint in the pre-activation domain: t_alpha = tau + alpha*Delta.
    const double x = (alpha * d - c) / s;
    // code counts satisfied comparisons:
    //   s > 0:  y >= alpha*d  <=>  a >= ceil(x)
    //   s < 0:  y >= alpha*d  <=>  a <= x  <=>  (-a) >= ceil(-x)
    t.thresholds_.push_back(t.sign_ > 0 ? ceil_to_i32(x) : ceil_to_i32(-x));
  }
  // Floating-point rounding can only produce ties, never inversions, but we
  // normalize defensively: the staircase must be monotone.
  std::sort(t.thresholds_.begin(), t.thresholds_.end());
  return t;
}

ThresholdActivation ThresholdActivation::from_two_param(
    const TwoParamForm& tp, int bits) {
  QNN_CHECK(tp.delta != 0.0,
            "degenerate two-parameter form (zero Delta) is not invertible");
  ThresholdActivation t;
  t.bits_ = bits;
  t.two_param_ = tp;
  t.sign_ = tp.delta > 0.0 ? +1 : -1;
  const int m = (1 << bits) - 1;
  t.thresholds_.reserve(static_cast<std::size_t>(m));
  for (int alpha = 1; alpha <= m; ++alpha) {
    const double x = tp.tau + alpha * tp.delta;
    t.thresholds_.push_back(t.sign_ > 0 ? ceil_to_i32(x) : ceil_to_i32(-x));
  }
  std::sort(t.thresholds_.begin(), t.thresholds_.end());
  return t;
}

std::int32_t ThresholdActivation::eval(std::int32_t a) const {
  if (sign_ == 0) return constant_code_;
  const std::int64_t v = sign_ > 0 ? a : -std::int64_t{a};
  const auto it =
      std::upper_bound(thresholds_.begin(), thresholds_.end(), v);
  return static_cast<std::int32_t>(it - thresholds_.begin());
}

std::int32_t ThresholdActivation::eval_binary_search(std::int32_t a) const {
  if (sign_ == 0) return constant_code_;
  const std::int64_t v = sign_ > 0 ? a : -std::int64_t{a};
  // The hardware form: n comparison levels narrowing 2^n ranges to one.
  int lo = 0;
  int hi = static_cast<int>(thresholds_.size());
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (v >= thresholds_[static_cast<std::size_t>(mid)]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

ThresholdLayer ThresholdLayer::fold(const BnLayerParams& bn,
                                    const ActQuantizer& q) {
  ThresholdLayer layer;
  for (int c = 0; c < bn.channels(); ++c) {
    layer.push_back(ThresholdActivation::fold(bn.at(c), q));
  }
  return layer;
}

ThresholdTable::ThresholdTable(const ThresholdLayer& layer)
    : channels_(layer.channels()) {
  const int bits = layer.bits();
  QNN_CHECK(bits >= 1 && bits <= 16, "threshold table bit width out of range");
  levels_ = (1 << bits) - 1;
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const auto c_count = static_cast<std::size_t>(channels_);
  sign_.reserve(c_count);
  t_.resize(static_cast<std::size_t>(levels_) * c_count);
  for (int c = 0; c < channels_; ++c) {
    const ThresholdActivation& t = layer.at(c);
    QNN_CHECK(t.bits() == bits, "threshold layer mixes activation widths");
    QNN_CHECK(t.is_constant() || t.thresholds().size() ==
                                     static_cast<std::size_t>(levels_),
              "threshold count does not match the activation width");
    sign_.push_back(t.sign());
    for (int l = 0; l < levels_; ++l) {
      std::int32_t v = 0;
      if (t.is_constant()) {
        v = l < t.constant_code() ? kMin : kMax;
      } else {
        v = t.thresholds()[static_cast<std::size_t>(l)];
        // -a >= T  <=>  ~a >= T - 1; T = INT32_MIN holds for every a.
        if (t.sign() < 0 && v != kMin) --v;
      }
      t_[static_cast<std::size_t>(l) * c_count + static_cast<std::size_t>(c)] =
          v;
    }
  }
}

}  // namespace qnn
