#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "alloc/problem.hpp"
#include "energy/activity.hpp"
#include "energy/params.hpp"
#include "energy/quantize.hpp"
#include "energy/voltage.hpp"
#include "ir/eval.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"

namespace lera::energy {
namespace {

TEST(Params, NominalVoltageNoScaling) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.e_mem_read(), p.mem_read);
  EXPECT_DOUBLE_EQ(p.e_mem_write(), p.mem_write);
  EXPECT_DOUBLE_EQ(p.e_reg_read(), p.reg_read);
  EXPECT_DOUBLE_EQ(p.e_reg_write(), p.reg_write);
}

TEST(Params, QuadraticVoltageScaling) {
  EnergyParams p;
  p.v_mem = 2.5;  // Half of the 5 V nominal -> quarter energy.
  EXPECT_DOUBLE_EQ(p.e_mem_read(), p.mem_read * 0.25);
  EXPECT_DOUBLE_EQ(p.e_mem_write(), p.mem_write * 0.25);
  // Register file unaffected by the memory supply.
  EXPECT_DOUBLE_EQ(p.e_reg_read(), p.reg_read);
}

TEST(Params, TransitionEnergies) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.e_reg_transition(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.e_reg_transition(0.5), 0.5 * p.reg_full_swing);
  EXPECT_DOUBLE_EQ(p.e_mem_transition(1.0), p.mem_full_swing);
}

TEST(Params, PaperEnergyRatios) {
  // The defaults encode the ratios the paper quotes from [14]: memory
  // read 5x, write 10x a 16-bit add, registers about 1x.
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.mem_read / p.reg_read, 5.0);
  EXPECT_DOUBLE_EQ(p.mem_write / p.reg_write, 10.0);
}

TEST(Quantize, RoundTripsWithinResolution) {
  Quantizer q(1e-6);
  for (double e : {0.0, 1.0, -3.75, 12.345678, 1e6}) {
    EXPECT_NEAR(q.dequantize(q.quantize(e)), e, 1e-6);
  }
}

TEST(Quantize, PreservesOrderingOfDistinctEnergies) {
  Quantizer q(1e-6);
  EXPECT_LT(q.quantize(1.0), q.quantize(1.000002));
  EXPECT_EQ(q.quantize(-2.0), -q.quantize(2.0));
}

TEST(Voltage, NominalDelayIsOne) {
  VoltageModel m;
  EXPECT_NEAR(m.relative_delay(m.v_nominal), 1.0, 1e-12);
}

TEST(Voltage, DelayGrowsAsVoltageDrops) {
  VoltageModel m;
  EXPECT_GT(m.relative_delay(3.0), m.relative_delay(4.0));
  EXPECT_GT(m.relative_delay(2.0), m.relative_delay(3.0));
}

TEST(Voltage, SlowdownInversion) {
  VoltageModel m;
  EXPECT_DOUBLE_EQ(voltage_for_slowdown(1.0, m), m.v_nominal);
  for (double slowdown : {1.5, 2.0, 4.0}) {
    const double v = voltage_for_slowdown(slowdown, m);
    EXPECT_LT(v, m.v_nominal);
    EXPECT_GE(v, m.v_min - 1e-9);
    if (v > m.v_min + 1e-9) {
      EXPECT_NEAR(m.relative_delay(v), slowdown, 1e-6);
    }
  }
}

TEST(Voltage, PaperTable1Range) {
  // The paper scales the memory supply from 5 V towards 2 V between full
  // speed and f/4; the alpha-power model should land in that range.
  VoltageModel m;
  const double v_half = voltage_for_slowdown(2.0, m);
  const double v_quarter = voltage_for_slowdown(4.0, m);
  EXPECT_LT(v_quarter, v_half);
  EXPECT_GT(v_half, 2.0);
  EXPECT_LE(v_quarter, 2.6);
  EXPECT_GE(v_quarter, 1.2);
}

TEST(Voltage, EnergyScaleQuadratic) {
  EXPECT_DOUBLE_EQ(energy_scale(2.5, 5.0), 0.25);
  EXPECT_DOUBLE_EQ(energy_scale(5.0, 5.0), 1.0);
}

TEST(Hamming, FractionBasics) {
  EXPECT_DOUBLE_EQ(hamming_fraction(0, 0, 16), 0.0);
  EXPECT_DOUBLE_EQ(hamming_fraction(0, 0xffff, 16), 1.0);
  EXPECT_DOUBLE_EQ(hamming_fraction(0b1010, 0b0101, 4), 1.0);
  EXPECT_DOUBLE_EQ(hamming_fraction(0b1010, 0b1000, 4), 0.25);
  // Only the low `width` bits matter.
  EXPECT_DOUBLE_EQ(hamming_fraction(0x10000, 0, 16), 0.0);
}

TEST(ActivityMatrix, DefaultsAndSymmetry) {
  ActivityMatrix m(3, 0.4, 0.6);
  EXPECT_DOUBLE_EQ(m.hamming(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(m.hamming(0, 0), 0.0);  // Same variable: no switch.
  EXPECT_DOUBLE_EQ(m.initial(2), 0.6);
  m.set(0, 2, 0.9);
  EXPECT_DOUBLE_EQ(m.hamming(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(m.hamming(2, 0), 0.9);
}

TEST(ActivityMatrix, UniformMatrixStaysLinear) {
  // Dense storage for 2^20 variables would be 8 TiB; a uniform matrix
  // keeps only the initials.
  const ActivityMatrix big(std::size_t{1} << 20, 0.25, 0.75);
  EXPECT_TRUE(big.is_uniform());
  EXPECT_DOUBLE_EQ(big.hamming(0, (1u << 20) - 1), 0.25);
  EXPECT_DOUBLE_EQ(big.hamming(7, 7), 0.0);
  EXPECT_DOUBLE_EQ(big.initial(12345), 0.75);

  // Writing the default is a no-op; the first other value takes effect
  // for that pair only, symmetrically, and ends uniformity.
  ActivityMatrix m(4, 0.4, 0.6);
  m.set(1, 2, 0.4);
  EXPECT_TRUE(m.is_uniform());
  m.set_initial(3, 0.6);
  EXPECT_TRUE(m.is_uniform());
  m.set(1, 3, 0.9);
  EXPECT_FALSE(m.is_uniform());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const bool pair = (i == 1 && j == 3) || (i == 3 && j == 1);
      EXPECT_DOUBLE_EQ(m.hamming(i, j), i == j ? 0.0 : pair ? 0.9 : 0.4)
          << i << "," << j;
    }
  }
  m.set(1, 3, 0.4);  // Back to the default: still not uniform.
  EXPECT_DOUBLE_EQ(m.hamming(3, 1), 0.4);
  EXPECT_FALSE(m.is_uniform());

  // A differing initial ends uniformity without touching the pairs.
  ActivityMatrix n(3, 0.5, 0.5);
  n.set_initial(0, 0.1);
  EXPECT_FALSE(n.is_uniform());
  EXPECT_DOUBLE_EQ(n.initial(0), 0.1);
  EXPECT_DOUBLE_EQ(n.hamming(0, 2), 0.5);
}

TEST(ActivityMatrix, FromTraceMeasuresMeanHamming) {
  // Two variables over two samples with known bit patterns.
  const std::vector<std::vector<std::int64_t>> trace = {
      {0x0f, 0x0e},  // differ in 1 of 16 bits
      {0x00, 0x03},  // differ in 2 of 16 bits
  };
  const ActivityMatrix m = ActivityMatrix::from_trace(trace, {16, 16});
  EXPECT_NEAR(m.hamming(0, 1), (1.0 / 16 + 2.0 / 16) / 2, 1e-12);
  // initial = mean weight of own bits: v0 has 4 then 0 set bits.
  EXPECT_NEAR(m.initial(0), (4.0 / 16 + 0.0) / 2, 1e-12);
}

TEST(ActivityMatrix, EmptyTraceFallsBackToDefaults) {
  const ActivityMatrix m = ActivityMatrix::from_trace({}, {16, 16});
  EXPECT_DOUBLE_EQ(m.hamming(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.initial(0), 0.5);
}

using Trace = std::vector<std::vector<std::int64_t>>;

/// from_trace as a per-sample double sum of Hamming fractions, divided
/// by the sample count: the reference the packed kernel must match.
ActivityMatrix reference_from_trace(const Trace& trace,
                                    const std::vector<int>& widths) {
  const std::size_t n = widths.size();
  ActivityMatrix m(n, 0.5, 0.5);
  if (trace.empty() || n == 0) return m;

  for (std::size_t i = 0; i < n; ++i) {
    double own = 0;
    for (const auto& sample : trace) {
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

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every H(i, j) and initial(i) of \p got bit-equal to \p want's.
::testing::AssertionResult BitEqual(const ActivityMatrix& got,
                                    const ActivityMatrix& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got.initial(i), want.initial(i))) {
      return ::testing::AssertionFailure()
             << "initial(" << i << ") " << got.initial(i)
             << " != " << want.initial(i);
    }
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (!same_bits(got.hamming(i, j), want.hamming(i, j))) {
        return ::testing::AssertionFailure()
               << "H(" << i << "," << j << ") " << got.hamming(i, j)
               << " != " << want.hamming(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// \p samples rows of \p n full-range 64-bit values.
Trace random_trace(std::size_t samples, std::size_t n, std::mt19937_64& rng) {
  Trace trace(samples, std::vector<std::int64_t>(n));
  for (auto& row : trace) {
    for (auto& v : row) v = static_cast<std::int64_t>(rng());
  }
  return trace;
}

TEST(ActivityMatrix, FromTraceMatchesReference) {
  // The 27 pipeline-kernels tasks, through make_problem_from_block's
  // trace path, at 10 trace seeds: bit-equal to the reference.
  std::vector<ir::BasicBlock> kernels;
  for (int n : {6, 8, 10, 12}) kernels.push_back(workloads::make_fir(n));
  kernels.push_back(workloads::make_iir_biquad());
  kernels.push_back(workloads::make_elliptic_wave_filter());
  kernels.push_back(workloads::make_fft_butterfly());
  kernels.push_back(workloads::make_fft(4));
  kernels.push_back(workloads::make_dct4());
  for (int n : {2, 3}) kernels.push_back(workloads::make_matmul(n));
  kernels.push_back(workloads::make_conv3x3());
  for (int n : {3, 4, 5, 6}) kernels.push_back(workloads::make_lattice(n));
  for (int n : {3, 4, 5, 6}) kernels.push_back(workloads::make_lms(n));
  kernels.push_back(workloads::make_viterbi_acs());
  for (int n : {4, 6, 8}) kernels.push_back(workloads::make_goertzel(n));
  for (int n : {2, 3, 4}) kernels.push_back(workloads::make_rsp(n));
  ASSERT_EQ(kernels.size(), 27u);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const ir::BasicBlock& bb = kernels[k];
      std::size_t inputs = 0;
      for (const ir::Operation& op : bb.ops()) {
        if (op.opcode == ir::Opcode::kInput) ++inputs;
      }
      std::mt19937_64 rng(seed * 1000 + k);
      std::uniform_int_distribution<std::int64_t> dist(-32768, 32767);
      Trace rows(32, std::vector<std::int64_t>(inputs));
      for (auto& row : rows) {
        for (auto& v : row) v = dist(rng);
      }
      const alloc::AllocationProblem p = alloc::make_problem_from_block(
          bb, sched::list_schedule(bb, {2, 1}), 4, EnergyParams{}, rows);
      const Trace full = ir::evaluate_trace(bb, rows);
      Trace var_trace(full.size());
      std::vector<int> widths;
      for (const lifetime::Lifetime& lt : p.lifetimes) {
        widths.push_back(lt.width);
        for (std::size_t s = 0; s < full.size(); ++s) {
          var_trace[s].push_back(full[s][static_cast<std::size_t>(lt.value)]);
        }
      }
      ASSERT_GT(widths.size(), 1u);
      EXPECT_TRUE(BitEqual(p.activity, reference_from_trace(var_trace, widths)))
          << "kernel " << k << " seed " << seed;
    }
  }

  // Power-of-two widths, alone and mixed, over 1..130 samples (past
  // every chunk the kernel folds at): bit-equal, on random values and on
  // values that differ in every bit, which fill every count lane.
  std::mt19937_64 rng(17);
  const std::vector<std::vector<int>> exact_widths = {
      {8, 8, 8, 8, 8},      {16, 16, 16, 16, 16}, {32, 32, 32, 32, 32},
      {64, 64, 64, 64, 64}, {8, 64, 16, 32, 8},   {16, 8, 16, 32, 16}};
  for (const std::vector<int>& widths : exact_widths) {
    for (std::size_t samples = 1; samples <= 130; ++samples) {
      const Trace trace = random_trace(samples, widths.size(), rng);
      EXPECT_TRUE(BitEqual(ActivityMatrix::from_trace(trace, widths),
                           reference_from_trace(trace, widths)))
          << "widths[0] " << widths[0] << ", " << samples << " samples";
      const Trace full_swing(samples, {-1, 0, -1, 0, -1});
      EXPECT_TRUE(BitEqual(ActivityMatrix::from_trace(full_swing, widths),
                           reference_from_trace(full_swing, widths)))
          << "widths[0] " << widths[0] << ", " << samples
          << " full-swing samples";
    }
  }

  // Other widths: the reference rounds every per-sample term, the
  // kernel only its one division.
  const auto near = [](double got, double want) {
    return std::abs(got - want) <= 1e-12 * std::abs(want);
  };
  for (int w = 1; w <= 64; ++w) {
    if (std::has_single_bit(static_cast<unsigned>(w))) continue;
    const std::vector<int> widths = {w, w, std::max(1, w / 3), w};
    for (std::size_t samples : {1, 7, 31, 32, 33, 62, 63, 100, 124, 125, 130}) {
      const Trace trace = random_trace(samples, widths.size(), rng);
      const ActivityMatrix got = ActivityMatrix::from_trace(trace, widths);
      const ActivityMatrix want = reference_from_trace(trace, widths);
      for (std::size_t i = 0; i < widths.size(); ++i) {
        EXPECT_TRUE(near(got.initial(i), want.initial(i)))
            << "width " << w << ", " << samples << " samples, initial " << i;
        for (std::size_t j = i + 1; j < widths.size(); ++j) {
          EXPECT_TRUE(near(got.hamming(i, j), want.hamming(i, j)))
              << "width " << w << ", " << samples << " samples, H(" << i
              << "," << j << ")";
        }
      }
    }
  }

  // An empty trace, or no variables, keeps the defaults.
  const ActivityMatrix empty = ActivityMatrix::from_trace({}, {16, 8});
  EXPECT_TRUE(empty.is_uniform());
  EXPECT_TRUE(BitEqual(empty, ActivityMatrix(2)));
  EXPECT_EQ(ActivityMatrix::from_trace(random_trace(3, 0, rng), {}).size(),
            0u);
}

}  // namespace
}  // namespace lera::energy
