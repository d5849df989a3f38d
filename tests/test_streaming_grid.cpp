// Conformance tests for the grid's one capture path: workers ship raw words
// through the rings and the drain pass owns ENC + voltage conversion, for
// every backend, code policy and resilience setting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "calib/fit.h"
#include "fault/fault_injector.h"
#include "grid/scan_grid.h"

namespace psnt::grid {
namespace {

using namespace psnt::literals;

ScanGridConfig base_config(std::size_t threads) {
  ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = 6;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 7;
  return config;
}

RailFactory test_rails(const scan::Floorplan& fp) {
  return ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                     {0.0, 0.0}, /*sigma_volts=*/0.004);
}

void expect_bins_equal(const core::VoltageBin& a, const core::VoltageBin& b,
                       const char* label, std::size_t site,
                       std::size_t sample) {
  // Bins must agree to the exact double, not just the printed string.
  ASSERT_EQ(a.lo.has_value(), b.lo.has_value())
      << label << " site " << site << " sample " << sample;
  ASSERT_EQ(a.hi.has_value(), b.hi.has_value())
      << label << " site " << site << " sample " << sample;
  if (a.lo) {
    EXPECT_EQ(a.lo->value(), b.lo->value());
  }
  if (a.hi) {
    EXPECT_EQ(a.hi->value(), b.hi->value());
  }
}

void expect_runs_identical(const RunResult& a_run, const RunResult& b_run,
                           std::size_t samples_per_site, const char* label) {
  ASSERT_EQ(a_run.sites.size(), b_run.sites.size());
  for (std::size_t i = 0; i < a_run.sites.size(); ++i) {
    const auto& a = a_run.sites[i];
    const auto& b = b_run.sites[i];
    EXPECT_EQ(a.final_code, b.final_code) << label << " site " << i;
    EXPECT_EQ(a.code_steps, b.code_steps) << label << " site " << i;
    for (std::size_t k = 0; k < samples_per_site; ++k) {
      ASSERT_TRUE(a.valid[k] && b.valid[k]) << label << " site " << i;
      const auto& sa = a.samples[k];
      const auto& sb = b.samples[k];
      EXPECT_EQ(sa.word, sb.word)
          << label << " site " << i << " sample " << k << ": word diverged";
      EXPECT_EQ(sa.code, sb.code) << label << " site " << i << " sample " << k;
      EXPECT_EQ(sa.timestamp.value(), sb.timestamp.value())
          << label << " site " << i << " sample " << k;
      expect_bins_equal(sa.bin, sb.bin, label, i, k);
    }
  }
}

TEST(StreamingGrid, StructuralSitesStreamRawWords) {
  // Structural sites capture a whole batch in one netlist run and ship raw
  // words; the drain's ladder decodes them to the bins the behavioral
  // kernel decode gives the same (word, code).
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(1);
  config.samples_per_site = 2;
  config.fidelity = SiteFidelity::kStructural;
  ScanGrid grid{fp, config, ScanGrid::constant_rails(1.0_V)};
  const auto result = grid.run();

  const auto& model = calib::calibrated().model;
  const core::BehavioralEngine decoder = calib::make_paper_engine(model);
  const analog::ConstantRail vdd{1.0_V};
  for (std::size_t i = 0; i < result.sites.size(); ++i) {
    // Each site is an independent netlist over the same constant rail.
    auto engine = core::make_structural_engine(
        calib::make_paper_array(model), core::PulseGenerator{model.pg_config()},
        {&vdd, nullptr}, config.thermometer.control_period, {});
    std::vector<core::RawSample> expected;
    core::MeasureRequest req;
    req.start = config.start;
    engine->measure_raw_batch(req, config.interval, 2, expected);
    for (std::size_t k = 0; k < 2; ++k) {
      const auto& got = result.sites[i].samples[k];
      ASSERT_TRUE(result.sites[i].valid[k]);
      EXPECT_EQ(got.word, expected[k].word) << "site " << i << " sample " << k;
      EXPECT_EQ(got.code, expected[k].code);
      EXPECT_EQ(got.timestamp.value(), expected[k].timestamp.value());
      expect_bins_equal(got.bin, decoder.decode(got.word, got.code),
                        "structural", i, k);
    }
  }
  // The netlist batch really took the raw path: the drain saw every word,
  // and the sim telemetry still flowed.
  EXPECT_EQ(grid.telemetry().counter("grid.samples_drained").value(),
            2u * 2u);
  EXPECT_GT(grid.telemetry().counter("grid.sim_events").value(), 0u);
}

TEST(StreamingGrid, DrainPassDrainsEveryProducedSample) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  ScanGrid grid{fp, base_config(4), test_rails(fp)};
  const auto result = grid.run();
  // Every produced sample went through the drain pass exactly once.
  EXPECT_EQ(grid.telemetry().counter("grid.samples_drained").value(),
            result.produced);

  // The resilient per-sample loop ships raw words through the same drain.
  auto chaos_config = base_config(2);
  chaos_config.injector =
      std::make_shared<fault::FaultInjector>(2026, fault::FaultStormConfig{});
  ScanGrid chaos{fp, chaos_config, test_rails(fp)};
  const auto chaos_result = chaos.run();
  EXPECT_EQ(chaos.telemetry().counter("grid.samples_drained").value(),
            chaos_result.produced);
}

TEST(StreamingGrid, ChaosAutoRangeTrimsOncePerPublishedSample) {
  // Votes and retries capture the same sample several times, but the code
  // policy observes only the published (majority) word: a zero-probability
  // injector with 3 votes must walk exactly the trim sequence of a plain
  // auto-range run.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto plain_config = base_config(2);
  plain_config.samples_per_site = 12;
  plain_config.code_policy = CodePolicy::kAutoRange;
  auto chaos_config = plain_config;
  chaos_config.injector =
      std::make_shared<fault::FaultInjector>(99, fault::FaultStormConfig{});
  chaos_config.resilience.votes = 3;
  chaos_config.resilience.max_retries = 1;
  // 0.85 V sits outside code 011's window: the controller must walk.
  ScanGrid plain{fp, plain_config, ScanGrid::constant_rails(Volt{0.85})};
  ScanGrid chaos{fp, chaos_config, ScanGrid::constant_rails(Volt{0.85})};
  const auto a = plain.run();
  const auto b = chaos.run();
  expect_runs_identical(a, b, 12, "chaos-vs-plain auto-range");
  for (const auto& site : b.sites) {
    EXPECT_GT(site.code_steps, 0u);
    EXPECT_TRUE(site.fault_events.empty());
  }
}

}  // namespace
}  // namespace psnt::grid
