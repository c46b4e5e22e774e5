#include <gtest/gtest.h>

#include "energy/activity.hpp"
#include "energy/params.hpp"
#include "energy/quantize.hpp"
#include "energy/voltage.hpp"

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

}  // namespace
}  // namespace lera::energy
