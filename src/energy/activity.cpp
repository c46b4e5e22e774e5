#include "energy/activity.hpp"

#include <bit>

namespace lera::energy {

ActivityMatrix::ActivityMatrix(std::size_t n, double default_h,
                               double initial_h)
    : n_(n),
      default_h_(default_h),
      initial_h_(initial_h),
      initial_(n, initial_h) {
  assert(default_h >= 0 && default_h <= 1);
  assert(initial_h >= 0 && initial_h <= 1);
}

void ActivityMatrix::set(std::size_t v1, std::size_t v2, double h) {
  assert(v1 < n_ && v2 < n_);
  assert(h >= 0 && h <= 1);
  if (h_.empty()) {
    if (h == default_h_) return;
    h_.assign(n_ * n_, default_h_);
  }
  if (h != default_h_) uniform_ = false;
  h_[v1 * n_ + v2] = h;
  h_[v2 * n_ + v1] = h;
}

void ActivityMatrix::set_initial(std::size_t v, double h) {
  assert(v < n_);
  assert(h >= 0 && h <= 1);
  if (h != initial_h_) uniform_ = false;
  initial_[v] = h;
}

double hamming_fraction(std::int64_t a, std::int64_t b, int width) {
  assert(width > 0 && width <= 64);
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  const std::uint64_t diff =
      (static_cast<std::uint64_t>(a) ^ static_cast<std::uint64_t>(b)) & mask;
  return static_cast<double>(std::popcount(diff)) / width;
}

ActivityMatrix ActivityMatrix::from_trace(
    const std::vector<std::vector<std::int64_t>>& trace,
    const std::vector<int>& widths) {
  const std::size_t n = widths.size();
  ActivityMatrix m(n, 0.5, 0.5);
  if (trace.empty() || n == 0) return m;

  for (std::size_t i = 0; i < n; ++i) {
    double own = 0;
    for (const auto& sample : trace) {
      assert(sample.size() == n);
      own += hamming_fraction(sample[i], 0, widths[i]);
    }
    m.set_initial(i, own / static_cast<double>(trace.size()));
    for (std::size_t j = i + 1; j < n; ++j) {
      const int width = std::max(widths[i], widths[j]);
      double acc = 0;
      for (const auto& sample : trace) {
        acc += hamming_fraction(sample[i], sample[j], width);
      }
      m.set(i, j, acc / static_cast<double>(trace.size()));
    }
  }
  return m;
}

}  // namespace lera::energy
