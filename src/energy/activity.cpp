#include "energy/activity.hpp"

#include <algorithm>
#include <bit>

namespace lera::energy {

namespace {

/// Per-byte set-bit counts of \p x: byte k of the result is the popcount
/// of byte k of x (0..8). Shifts, masks and adds only, so it stays inline
/// on targets without a popcount instruction.
std::uint64_t byte_popcounts(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  return (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
}

/// Sum of the eight byte lanes of \p x.
std::uint64_t sum_bytes(std::uint64_t x) {
  x = (x & 0x00FF00FF00FF00FFULL) + ((x >> 8) & 0x00FF00FF00FF00FFULL);
  return (x * 0x0001000100010001ULL) >> 48;
}

/// Set bits of (a[q] ^ b[q]) & mask over q < words. Byte-lane counts
/// are summed for at most 31 words at a time (31 * 8 <= 255, so no lane
/// overflows) and then folded into the total.
std::uint64_t count_diff_bits(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words, std::uint64_t mask) {
  constexpr std::size_t kChunk = 31;
  std::uint64_t bits = 0;
  for (std::size_t q0 = 0; q0 < words; q0 += kChunk) {
    const std::size_t end = std::min(words, q0 + kChunk);
    std::uint64_t lanes = 0;
    for (std::size_t q = q0; q < end; ++q) {
      lanes += byte_popcounts((a[q] ^ b[q]) & mask);
    }
    bits += sum_bytes(lanes);
  }
  return bits;
}

/// The low \p width bits set.
std::uint64_t low_bits(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

}  // namespace

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
  const std::uint64_t diff =
      (static_cast<std::uint64_t>(a) ^ static_cast<std::uint64_t>(b)) &
      low_bits(static_cast<unsigned>(width));
  return static_cast<double>(std::popcount(diff)) / width;
}

ActivityMatrix ActivityMatrix::from_trace(
    const std::vector<std::vector<std::int64_t>>& trace,
    const std::vector<int>& widths) {
  const std::size_t n = widths.size();
  ActivityMatrix m(n, 0.5, 0.5);
  if (trace.empty() || n == 0) return m;

  // Pack the trace into one column of words per variable: each word
  // holds `lanes` consecutive samples, each cut to `lane_bits` bits (the
  // widest width, rounded up to a power of two). A short last word is
  // zero-padded in every column, so its padding never differs.
  int widest = 1;
  for (int w : widths) {
    assert(w > 0 && w <= 64);
    widest = std::max(widest, w);
  }
  const unsigned lane_bits = std::bit_ceil(static_cast<unsigned>(widest));
  const std::size_t lanes = 64 / lane_bits;
  const std::size_t samples = trace.size();
  const std::size_t words = (samples + lanes - 1) / lanes;
  const std::uint64_t lane_mask = low_bits(lane_bits);
  std::vector<std::uint64_t> columns(n * words, 0);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::vector<std::int64_t>& sample = trace[s];
    assert(sample.size() == n);
    const unsigned shift = static_cast<unsigned>(s % lanes) * lane_bits;
    std::uint64_t* word = columns.data() + s / lanes;
    for (std::size_t i = 0; i < n; ++i) {
      word[i * words] |=
          (static_cast<std::uint64_t>(sample[i]) & lane_mask) << shift;
    }
  }

  // Variable i's width mask in every lane. Masks are low-bit runs, so a
  // pair's mask at the wider of its widths is the OR of the two.
  std::vector<std::uint64_t> mask(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t own = low_bits(static_cast<unsigned>(widths[i]));
    for (std::size_t k = 0; k < lanes; ++k) mask[i] |= own << (k * lane_bits);
  }

  // H = flipped bits / (width * samples): one exact integer count and
  // one division per entry.
  const std::vector<std::uint64_t> zeros(words, 0);
  const double count = static_cast<double>(samples);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* col_i = columns.data() + i * words;
    const std::uint64_t own =
        count_diff_bits(col_i, zeros.data(), words, mask[i]);
    m.set_initial(i, static_cast<double>(own) / (widths[i] * count));
    for (std::size_t j = i + 1; j < n; ++j) {
      const int width = std::max(widths[i], widths[j]);
      const std::uint64_t bits = count_diff_bits(
          col_i, columns.data() + j * words, words, mask[i] | mask[j]);
      m.set(i, j, static_cast<double>(bits) / (width * count));
    }
  }
  return m;
}

}  // namespace lera::energy
