// End-to-end integration: PDN noise → rails → thermometer → decoded voltages.
#include <gtest/gtest.h>

#include "analog/process.h"
#include "calib/fit.h"
#include "core/thermometer.h"
#include "cut/activity.h"
#include "psn/pdn.h"

namespace psnt {
namespace {

using namespace psnt::literals;

psn::LumpedPdnParams pdn_params() {
  psn::LumpedPdnParams p;
  p.v_reg = 1.0_V;
  p.resistance = Ohm{0.004};
  p.inductance = NanoHenry{0.08};
  p.decap = Picofarad{120000.0};
  return p;
}

// One GND-n transaction through the thermometer's engine.
core::Measurement measure_gnd(core::NoiseThermometer& t,
                              const analog::RailSource& gnd,
                              Picoseconds start, core::DelayCode code) {
  core::MeasureRequest req;
  req.start = start;
  req.target = core::SenseTarget::kGnd;
  req.code = code;
  return t.engine().measure(req, analog::RailPair{nullptr, &gnd});
}

TEST(Integration, ThermometerTracksAPdnDroopWaveform) {
  // A current step excites the PDN; iterated measures across the transient
  // must (a) bracket the true rail voltage at each sampling instant and
  // (b) catch the droop (minimum reading < initial reading).
  psn::LumpedPdn pdn{pdn_params()};
  psn::StepCurrent load{Ampere{1.0}, Ampere{3.0}, 50000.0_ps};
  const psn::Waveform rail_wave = pdn.solve(load, 300000.0_ps, 10.0_ps);
  const analog::SampledRail rail = rail_wave.to_rail();

  auto t = calib::make_paper_thermometer(calib::calibrated().model);
  const auto ms = t.iterate_vdd(analog::RailPair{&rail, nullptr}, 0.0_ps,
                                10000.0_ps, 25, core::DelayCode{3});
  ASSERT_EQ(ms.size(), 25u);

  std::size_t min_count = 7, first_count = ms.front().word.count_ones();
  for (const auto& m : ms) {
    const double truth = rail_wave.value_at(m.timestamp);
    if (m.bin.lo) {
      EXPECT_LE(m.bin.lo->value(), truth + 1e-9);
    }
    if (m.bin.hi) {
      EXPECT_GT(m.bin.hi->value(), truth - 1e-9);
    }
    min_count = std::min(min_count, m.word.count_ones());
  }
  EXPECT_LT(min_count, first_count);  // the droop was observed
}

TEST(Integration, GroundBounceMeasuredByLowSense) {
  auto params = pdn_params();
  params.polarity = psn::RailPolarity::kGroundBounce;
  psn::LumpedPdn gnd_net{params};
  psn::StepCurrent load{Ampere{1.0}, Ampere{6.0}, 20000.0_ps};
  const psn::Waveform bounce = gnd_net.solve(load, 100000.0_ps, 10.0_ps);
  const analog::SampledRail gnd = bounce.to_rail();

  auto t = calib::make_paper_thermometer(calib::calibrated().model);
  // Measure at the worst bounce instant (the LS range reaches ~170 mV).
  const auto worst_t = psn::analyze_droop(bounce, 0.004,
                                          psn::RailPolarity::kGroundBounce)
                           .time_of_worst;
  // Start the transaction so the sense lands near the worst point.
  const Picoseconds start{worst_t.value() - 6.5 * 1250.0};
  const auto m = measure_gnd(t, gnd, start, core::DelayCode{3});
  const double truth = bounce.value_at(m.timestamp);
  if (m.bin.lo) {
    EXPECT_LE(m.bin.lo->value(), truth + 1e-9);
  }
  if (m.bin.hi) {
    EXPECT_GT(m.bin.hi->value(), truth - 1e-9);
  }
}

TEST(Integration, PipelineWorkloadStaysInSensorRange) {
  // A realistic pipeline workload through the PDN lands inside the code-011
  // window most of the time (guardband sizing sanity).
  cut::PipelineCut cut{cut::PipelineCut::Config{}};
  stats::Xoshiro256 rng(2026);
  const auto activity = cut.run(400, rng);
  const auto profile = activity.to_current(Ampere{0.5}, Ampere{3.0});
  psn::LumpedPdn pdn{pdn_params()};
  const psn::Waveform wave =
      pdn.solve(*profile, activity.duration(), 25.0_ps);
  const analog::SampledRail rail = wave.to_rail();

  auto t = calib::make_paper_thermometer(calib::calibrated().model);
  const auto ms = t.iterate_vdd(analog::RailPair{&rail, nullptr}, 0.0_ps,
                                12500.0_ps, 30, core::DelayCode{3});
  std::size_t in_range = 0;
  for (const auto& m : ms) {
    if (m.bin.in_range()) ++in_range;
  }
  EXPECT_GT(in_range, 20u);
}

TEST(Integration, DelayCodeRetuneCapturesOvervoltage) {
  // A rail sitting at 1.10 V saturates code 011 (all ones) but is resolved
  // by code 010 — the paper's "also overvoltages can be measured".
  analog::ConstantRail vdd{1.10_V};
  auto t = calib::make_paper_thermometer(calib::calibrated().model);
  const auto sat = t.measure_vdd(analog::RailPair{&vdd, nullptr}, 0.0_ps,
                                 core::DelayCode{3});
  EXPECT_TRUE(sat.word.all_ones());
  EXPECT_TRUE(sat.bin.above_range());
  const auto resolved = t.measure_vdd(analog::RailPair{&vdd, nullptr},
                                      100000.0_ps, core::DelayCode{2});
  ASSERT_TRUE(resolved.bin.in_range());
  EXPECT_LE(resolved.bin.lo->value(), 1.10);
  EXPECT_GT(resolved.bin.hi->value(), 1.10);
}

TEST(Integration, SimultaneousVddAndGndMeasurement) {
  // Fig. 6's architecture point: HS and LS observe different quantities of
  // the same event without interfering.
  psn::LumpedPdn vdd_net{pdn_params()};
  auto gnd_params = pdn_params();
  gnd_params.polarity = psn::RailPolarity::kGroundBounce;
  psn::LumpedPdn gnd_net{gnd_params};
  psn::StepCurrent load{Ampere{1.0}, Ampere{4.0}, 30000.0_ps};
  const auto vdd_wave = vdd_net.solve(load, 120000.0_ps, 10.0_ps);
  const auto gnd_wave = gnd_net.solve(load, 120000.0_ps, 10.0_ps);
  const analog::SampledRail vdd = vdd_wave.to_rail();
  const analog::SampledRail gnd = gnd_wave.to_rail();

  auto t = calib::make_paper_thermometer(calib::calibrated().model);
  const auto mv = t.measure_vdd(analog::RailPair{&vdd, &gnd},
                                20000.0_ps, core::DelayCode{3});
  const auto mg = measure_gnd(t, gnd, 20000.0_ps, core::DelayCode{3});
  EXPECT_EQ(mv.target, core::SenseTarget::kVdd);
  EXPECT_EQ(mg.target, core::SenseTarget::kGnd);
  // HS saw vdd - gnd at its sampling instant.
  const double truth =
      vdd_wave.value_at(mv.timestamp) - gnd_wave.value_at(mv.timestamp);
  if (mv.bin.lo) {
    EXPECT_LE(mv.bin.lo->value(), truth + 1e-9);
  }
  if (mv.bin.hi) {
    EXPECT_GT(mv.bin.hi->value(), truth - 1e-9);
  }
}

TEST(Integration, MonteCarloMismatchKeepsThermometerMostlyValid) {
  // Within-die mismatch perturbs each cell; words may bubble but majority
  // encoding keeps the reading close to the mismatch-free one.
  const auto& model = calib::calibrated().model;
  stats::Xoshiro256 rng(77);
  const core::Encoder encoder;
  const Picoseconds skew = model.skew(core::DelayCode{3});
  const auto reference = calib::make_paper_array(model);

  int total_err = 0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<core::SensorCell> cells;
    for (const Picofarad load : model.array_loads) {
      cells.emplace_back(
          analog::apply_mismatch(model.inverter, {}, rng),
          model.flipflop, load);
    }
    const core::SensorArray noisy{std::move(cells)};
    for (double v : {0.90, 0.95, 1.00, 1.05}) {
      const auto w_ref = reference.measure(Volt{v}, skew);
      const auto w_mc = noisy.measure(Volt{v}, skew);
      total_err += std::abs(
          static_cast<int>(encoder.encode(w_mc).count) -
          static_cast<int>(encoder.encode(w_ref).count));
    }
  }
  // Average error below one LSB.
  EXPECT_LT(static_cast<double>(total_err) / (trials * 4), 1.0);
}

}  // namespace
}  // namespace psnt
