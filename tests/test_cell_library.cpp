#include "analog/cell_library.h"

#include <gtest/gtest.h>

namespace psnt::analog {
namespace {

using namespace psnt::literals;

TEST(TimingTable, ExactOnGridPoints) {
  TimingTable t({10.0, 20.0}, {0.001, 0.002},
                {5.0, 6.0,
                 7.0, 9.0});
  EXPECT_DOUBLE_EQ(t.lookup(10.0_ps, 0.001_pF).value(), 5.0);
  EXPECT_DOUBLE_EQ(t.lookup(10.0_ps, 0.002_pF).value(), 6.0);
  EXPECT_DOUBLE_EQ(t.lookup(20.0_ps, 0.001_pF).value(), 7.0);
  EXPECT_DOUBLE_EQ(t.lookup(20.0_ps, 0.002_pF).value(), 9.0);
}

TEST(TimingTable, BilinearInterpolationAtCenter) {
  TimingTable t({10.0, 20.0}, {0.001, 0.002},
                {5.0, 6.0,
                 7.0, 9.0});
  EXPECT_DOUBLE_EQ(t.lookup(15.0_ps, 0.0015_pF).value(), 6.75);
}

TEST(TimingTable, ExtrapolatesBeyondAxes) {
  TimingTable t({10.0, 20.0}, {0.001, 0.002},
                {5.0, 6.0,
                 7.0, 9.0});
  // Along the load axis at slew 10: slope 1000 ps/pF → at 0.003 expect 7.
  EXPECT_DOUBLE_EQ(t.lookup(10.0_ps, 0.003_pF).value(), 7.0);
  // Below the axis: at 0.0 expect 4.
  EXPECT_DOUBLE_EQ(t.lookup(10.0_ps, 0.0_pF).value(), 4.0);
}

TEST(TimingTable, LinearFactoryMatchesFormula) {
  const auto t = TimingTable::linear(20.0, 1000.0, 0.5);
  // value = 20 + 1000*load + 0.5*slew at any point (exactly affine).
  EXPECT_NEAR(t.lookup(40.0_ps, 0.010_pF).value(), 20.0 + 10.0 + 20.0, 1e-9);
  EXPECT_NEAR(t.lookup(100.0_ps, 0.050_pF).value(), 20.0 + 50.0 + 50.0, 1e-9);
}

TEST(TimingTable, RejectsMalformedAxes) {
  EXPECT_THROW(TimingTable({2.0, 1.0}, {0.001}, {1.0, 2.0}), std::logic_error);
  EXPECT_THROW(TimingTable({1.0}, {0.001}, {1.0, 2.0}), std::logic_error);
}

TEST(CellLibrary, DefaultLibraryContents) {
  const auto& lib = default_90nm_library();
  for (const char* name :
       {"INV_X1", "INV_X2", "INV_X4", "BUF_X1", "NAND2_X1", "NOR2_X1",
        "AND2_X1", "OR2_X1", "XOR2_X1", "MUX2_X1", "AOI21_X1", "DFF_X1",
        "DLY4_X1"}) {
    EXPECT_NE(lib.find(name), nullptr) << name;
  }
  EXPECT_EQ(lib.find("NAND8_X1"), nullptr);
  EXPECT_THROW((void)lib.at("NAND8_X1"), std::logic_error);
}

TEST(CellLibrary, DriveStrengthOrdering) {
  const auto& lib = default_90nm_library();
  const Picoseconds slew{40.0};
  const Picofarad load{0.02};
  const double x1 = lib.at("INV_X1").worst_delay(slew, load).value();
  const double x2 = lib.at("INV_X2").worst_delay(slew, load).value();
  const double x4 = lib.at("INV_X4").worst_delay(slew, load).value();
  EXPECT_GT(x1, x2);
  EXPECT_GT(x2, x4);
}

TEST(CellLibrary, DffIsSequentialWithPlausibleTiming) {
  const auto& lib = default_90nm_library();
  const Cell& dff = lib.at("DFF_X1");
  ASSERT_TRUE(dff.is_sequential());
  EXPECT_GT(dff.seq->t_setup.value(), 0.0);
  EXPECT_GT(dff.seq->clk_to_q.lookup(40.0_ps, 0.005_pF).value(),
            dff.seq->t_setup.value());
}

TEST(CellLibrary, VoltageDerateIsOneAtNominal) {
  const auto& lib = default_90nm_library();
  EXPECT_NEAR(lib.voltage_derate(lib.nominal_voltage()), 1.0, 1e-12);
}

TEST(CellLibrary, VoltageDerateGrowsAsSupplyDrops) {
  const auto& lib = default_90nm_library();
  double prev = 10.0;
  for (double v = 0.80; v <= 1.20; v += 0.05) {
    const double f = lib.voltage_derate(Volt{v});
    EXPECT_LT(f, prev) << "at V=" << v;
    prev = f;
  }
  EXPECT_GT(lib.voltage_derate(Volt{0.9}), 1.0);
  EXPECT_LT(lib.voltage_derate(Volt{1.1}), 1.0);
}

TEST(CellLibrary, RejectsDuplicates) {
  CellLibrary lib;
  Cell c;
  c.name = "X";
  lib.add(c);
  EXPECT_THROW(lib.add(c), std::logic_error);
}

TEST(CellLibrary, CellNamesSorted) {
  const auto& lib = default_90nm_library();
  const auto names = lib.cell_names();
  EXPECT_EQ(names.size(), lib.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

}  // namespace
}  // namespace psnt::analog
