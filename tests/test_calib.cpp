// The reproduction's keystone: the calibrated model reproduces every anchor
// the paper quotes (DESIGN.md §6, EXPERIMENTS.md).
#include "calib/fit.h"

#include <gtest/gtest.h>

#include <sstream>

#include "thermo_words.h"

namespace psnt::calib {
namespace {

using namespace psnt::literals;

TEST(Calibration, FitConvergesToSmallResidual) {
  const FitResult& fit = calibrated();
  // Objective includes the code-010 prediction residuals + priors; anything
  // below a few ps^2 means sub-ps timing closure on the anchors.
  EXPECT_LT(fit.objective, 5.0);
}

TEST(Calibration, ParametersPhysicallyPlausibleFor90nm) {
  const auto& p = calibrated().model.inverter.params();
  EXPECT_GT(p.alpha, 1.0);
  EXPECT_LT(p.alpha, 1.8);
  EXPECT_GT(p.v_threshold.value(), 0.2);
  EXPECT_LT(p.v_threshold.value(), 0.45);
  EXPECT_GT(p.drive_k_pf_per_ps, 0.01);
  EXPECT_LT(p.drive_k_pf_per_ps, 0.10);
  EXPECT_GT(calibrated().model.cp_insertion.value(), 20.0);
  EXPECT_LT(calibrated().model.cp_insertion.value(), 200.0);
}

TEST(Calibration, Fig4AnchorExact) {
  const auto& model = calibrated().model;
  const auto thr = model.inverter.threshold_supply(
      2.0_pF, model.budget(core::DelayCode{3}));
  ASSERT_TRUE(thr.has_value());
  EXPECT_NEAR(thr->value(), 0.9360, 5e-4);
}

TEST(Calibration, Fig5Code011ThresholdsExact) {
  const auto& model = calibrated().model;
  const auto& anchors = paper_anchors();
  const Picoseconds b = model.budget(core::DelayCode{3});
  ASSERT_EQ(model.array_loads.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    const auto thr =
        model.inverter.threshold_supply(model.array_loads[i], b);
    ASSERT_TRUE(thr.has_value()) << i;
    EXPECT_NEAR(thr->value(), anchors.fig5_code011_thresholds[i].value(),
                1e-4)
        << "bit " << i;
  }
}

TEST(Calibration, Fig5Code010RangePredictedWithin15mV) {
  // These two numbers are NOT fitted exactly — they are predictions of the
  // physical model, and land within ~10 mV of the paper (EXPERIMENTS.md).
  const auto& model = calibrated().model;
  const Picoseconds b = model.budget(core::DelayCode{2});
  const auto lo =
      model.inverter.threshold_supply(model.array_loads.front(), b);
  const auto hi = model.inverter.threshold_supply(model.array_loads.back(), b);
  ASSERT_TRUE(lo && hi);
  EXPECT_NEAR(lo->value(), 0.951, 0.015);
  EXPECT_NEAR(hi->value(), 1.237, 0.015);
}

TEST(Calibration, LoadsAscendAndBracket2pF) {
  const auto& loads = calibrated().model.array_loads;
  for (std::size_t i = 1; i < loads.size(); ++i) {
    EXPECT_GT(loads[i].value(), loads[i - 1].value());
  }
  // Fig. 4's 2 pF point (threshold 0.936 V) falls between bits 3 and 4
  // (thresholds 0.929 / 0.9605 V), so the loads must bracket 2 pF there.
  EXPECT_LT(loads[2].value(), 2.0);
  EXPECT_GT(loads[3].value(), 2.0);
}

TEST(Calibration, Fig9WordsReproduceExactly) {
  const auto& fit = calibrated();
  const auto array = make_paper_array(fit.model);
  const Picoseconds skew = fit.model.skew(core::DelayCode{3});
  EXPECT_EQ(array.measure(1.0_V, skew).to_string(), "0011111");
  EXPECT_EQ(array.measure(0.9_V, skew).to_string(), "0000011");
}

TEST(Calibration, Fig9BinsMatchQuotedIntervals) {
  const auto& fit = calibrated();
  const auto array = make_paper_array(fit.model);
  const Picoseconds skew = fit.model.skew(core::DelayCode{3});
  const auto bin1 = array.decode(core::thermo_word("0011111"), skew);
  ASSERT_TRUE(bin1.in_range());
  EXPECT_NEAR(bin1.lo->value(), 0.992, 1e-3);
  EXPECT_NEAR(bin1.hi->value(), 1.021, 1e-3);
  const auto bin2 = array.decode(core::thermo_word("0000011"), skew);
  ASSERT_TRUE(bin2.in_range());
  EXPECT_NEAR(bin2.lo->value(), 0.896, 1e-3);
  EXPECT_NEAR(bin2.hi->value(), 0.929, 1e-3);
}

TEST(Calibration, ReportCoversEveryAnchor) {
  const auto& fit = calibrated();
  // 1 (fig4) + 2 (code-010 range) + 7 (code-011 thresholds).
  EXPECT_EQ(fit.report.size(), 10u);
  for (const auto& r : fit.report) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_GT(r.achieved, 0.0) << r.name;
    EXPECT_LT(std::fabs(r.error()), 0.02) << r.name;
  }
}

TEST(Calibration, DeterministicAcrossRuns) {
  const FitResult a = fit_paper_model();
  const FitResult b = fit_paper_model();
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_DOUBLE_EQ(a.model.cp_insertion.value(), b.model.cp_insertion.value());
  ASSERT_EQ(a.model.array_loads.size(), b.model.array_loads.size());
  for (std::size_t i = 0; i < a.model.array_loads.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.model.array_loads[i].value(),
                     b.model.array_loads[i].value());
  }
}

TEST(Calibration, PaperThermometerFactoryIsComplete) {
  auto t = make_paper_thermometer(calibrated().model);
  EXPECT_EQ(t.high_sense().bits(), 7u);
  EXPECT_EQ(t.low_sense().bits(), 7u);
  const auto& pg_cfg = t.pulse_generator().config();
  EXPECT_DOUBLE_EQ(pg_cfg.cp_insertion.value(),
                   calibrated().model.cp_insertion.value());
}

TEST(Calibration, ReportRendersAnchorsAndModel) {
  std::ostringstream os;
  write_calibration_report(os, calibrated());
  const std::string text = os.str();
  EXPECT_NE(text.find("fitted alpha-power model"), std::string::npos);
  EXPECT_NE(text.find("CP insertion delay"), std::string::npos);
  EXPECT_NE(text.find("fig4_threshold_at_2pF_V"), std::string::npos);
  EXPECT_NE(text.find("fig5_code011_thr7_V"), std::string::npos);
  EXPECT_NE(text.find("array loads (pF):"), std::string::npos);
  EXPECT_NE(text.find("0.9360"), std::string::npos);
}

TEST(Anchors, DelayTableMatchesPaper) {
  const auto& a = paper_anchors();
  const double expected[8] = {26, 40, 50, 65, 77, 92, 100, 107};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.delay_table[i].value(), expected[i]);
  }
  EXPECT_DOUBLE_EQ(a.control_critical_path.value(), 1220.0);
}

}  // namespace
}  // namespace psnt::calib
