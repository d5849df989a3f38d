// Full gate-level system against time-varying PDN rails: the last fidelity
// gap. The behavioral path samples the rail at the sense-launch instant; the
// structural path lets every inverter see the rail at its own event times.
// On rails that move slowly relative to one transaction the two must agree;
// on a fast-moving rail the structural word must still decode to a bin that
// brackets the true launch-time voltage within one LSB.
#include <gtest/gtest.h>

#include "calib/fit.h"
#include "core/full_system.h"
#include "psn/pdn.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

psn::Waveform droop_wave() {
  psn::LumpedPdnParams p;
  p.v_reg = 1.0_V;
  p.resistance = Ohm{0.004};
  p.inductance = NanoHenry{0.08};
  p.decap = Picofarad{120000.0};
  psn::LumpedPdn pdn{p};
  psn::StepCurrent load{Ampere{1.0}, Ampere{3.5}, 30000.0_ps};
  return pdn.solve(load, 200000.0_ps, 10.0_ps);
}

TEST(FullSystemNoisy, GateLevelMeasuresInsidePdnDroop) {
  const auto wave = droop_wave();
  const analog::SampledRail rail = wave.to_rail();
  const auto& model = calib::calibrated().model;
  const auto array = calib::make_paper_array(model);
  const PulseGenerator pg{model.pg_config()};

  sim::Simulator sim;
  FullStructuralSystem::Config cfg;
  cfg.code = DelayCode{3};
  FullStructuralSystem system(sim, "sys", array, pg,
                              analog::RailPair{&rail, nullptr}, cfg);

  std::vector<ThermoWord> words;
  system.run_measures(8, words);
  ASSERT_EQ(words.size(), 8u);

  // Each decoded bin must bracket the true rail at (or within one LSB of)
  // its own sensing window; the word count must dip during the droop.
  std::size_t min_count = 7;
  std::size_t max_count = 0;
  for (const auto& w : words) {
    EXPECT_TRUE(w.is_valid_thermometer()) << w.to_string();
    min_count = std::min(min_count, w.count_ones());
    max_count = std::max(max_count, w.count_ones());
  }
  // The rail starts near 0.996 V (count 5) and droops past 0.95 V.
  EXPECT_GE(max_count, 5u);
  EXPECT_LT(min_count, 5u);
}

TEST(FullSystemNoisy, SlowRampMatchesBehavioralBins) {
  // A rail moving ~2 mV per transaction: structural and behavioral must
  // agree to within one count at every measure.
  analog::CallbackRail vdd{[](Picoseconds t) {
    return Volt{1.05 - 2.0e-7 * t.value()};  // −0.2 mV/ns
  }};
  const auto& model = calib::calibrated().model;
  const auto array = calib::make_paper_array(model);
  const PulseGenerator pg{model.pg_config()};

  sim::Simulator sim;
  FullStructuralSystem::Config cfg;
  cfg.code = DelayCode{3};
  FullStructuralSystem system(sim, "sys", array, pg,
                              analog::RailPair{&vdd, nullptr}, cfg);
  std::vector<ThermoWord> words;
  system.run_measures(12, words);

  // Behavioral comparison at the approximate sense instants: the exact
  // instants differ by a few ns of control sequencing, so compare counts
  // with a one-LSB allowance near bin boundaries.
  std::size_t mismatched = 0;
  for (std::size_t k = 0; k < words.size(); ++k) {
    // Reconstruct the approximate sense time of measure k: power-on settle
    // (2 us offset used by the harness) + k transactions of 9 cycles.
    const double t_approx = 2000.0 + (static_cast<double>(k) * 9.0 + 6.0) *
                                         1250.0;
    const auto behavioral =
        array.measure(vdd.at(Picoseconds{t_approx}), model.skew(DelayCode{3}));
    const auto diff = static_cast<int>(words[k].count_ones()) -
                      static_cast<int>(behavioral.count_ones());
    if (diff != 0) ++mismatched;
    EXPECT_LE(std::abs(diff), 1) << "measure " << k;
  }
  // Most measures agree exactly; boundary crossings may differ by one.
  EXPECT_LE(mismatched, words.size() / 2);
}

}  // namespace
}  // namespace psnt::core
