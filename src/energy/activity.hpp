#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

/// \file activity.hpp
/// Switching activities H(v1, v2) between data variables (paper §3).
/// Stored as *fractions* in [0, 1] — the paper's Figures 3 and 4 list
/// them the same way ("number of bits which change over total number of
/// bits"). The activity-based register energy of a transition is
/// H(v1,v2) * C_rw^r * Vr^2 (EnergyParams::e_reg_transition).

namespace lera::energy {

class ActivityMatrix {
 public:
  /// \p n variables, all pairs defaulting to \p default_h; \p initial_h
  /// is the activity of the first value written into an empty register
  /// (the paper assumes 0.5 "at time 0" in Figure 3).
  explicit ActivityMatrix(std::size_t n, double default_h = 0.5,
                          double initial_h = 0.5);

  std::size_t size() const { return n_; }

  double hamming(std::size_t v1, std::size_t v2) const {
    assert(v1 < n_ && v2 < n_);
    if (v1 == v2) return 0.0;
    return h_.empty() ? default_h_ : h_[v1 * n_ + v2];
  }

  /// Sets H(v1,v2) = H(v2,v1) = h (bit flips are symmetric). The n x n
  /// table is only allocated by the first h that differs from the
  /// default, so a uniform matrix costs O(n).
  void set(std::size_t v1, std::size_t v2, double h);

  double initial(std::size_t v) const {
    assert(v < n_);
    return initial_[v];
  }
  void set_initial(std::size_t v, double h);

  /// True while every pair still holds the constructor's default_h and
  /// every initial the constructor's initial_h — i.e. no set() call has
  /// ever written a different value. Consumers (fingerprinting) may
  /// then summarize the whole matrix as (n, default, initial) instead
  /// of walking O(n^2) entries. Conservative: a matrix rebuilt to the
  /// same values through non-default writes reports false, which only
  /// costs the consumer the long form, never a wrong summary.
  bool is_uniform() const { return uniform_; }
  double uniform_h() const { return default_h_; }
  double uniform_initial() const { return initial_h_; }

  /// Measures activities from a value trace: \p trace[s][i] is variable
  /// i's value in sample s, \p widths[i] its bit width (1..64). H(i,j) is
  /// the total number of flipped bits between i and j over the trace,
  /// counted in the low width = max(widths[i], widths[j]) bits, divided
  /// by width * samples; initial(i) is the same count taken against 0
  /// (register assumed cleared beforehand). Bits are summed as integers
  /// and divided once, so for power-of-two widths H is bit-identical to
  /// the mean of the per-sample hamming_fraction values, and for other
  /// widths it is that mean correctly rounded. An empty trace or n = 0
  /// keeps the defaults.
  static ActivityMatrix from_trace(
      const std::vector<std::vector<std::int64_t>>& trace,
      const std::vector<int>& widths);

 private:
  std::size_t n_;
  double default_h_;
  double initial_h_;
  bool uniform_ = true;
  std::vector<double> h_;  ///< Row-major n x n; empty while all pairs
                           ///< hold default_h_.
  std::vector<double> initial_;
};

/// Hamming distance between the low \p width bits of two words, as a
/// fraction of \p width.
double hamming_fraction(std::int64_t a, std::int64_t b, int width);

}  // namespace lera::energy
