#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calib/fit.h"
#include "grid/scan_grid.h"
#include "grid_rails.h"
#include "scan/scan_chain.h"

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

// The per-site IR gradient + per-site random offset every test below shares.
RailFactory test_rails(const scan::Floorplan& fp) {
  return ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                     {0.0, 0.0}, /*sigma_volts=*/0.004);
}

// Exact-double bin equality (lo/hi), not just the printed string.
void expect_same_bin(const core::VoltageBin& got, const core::VoltageBin& want,
                     const std::string& where) {
  ASSERT_EQ(got.lo.has_value(), want.lo.has_value()) << where;
  ASSERT_EQ(got.hi.has_value(), want.hi.has_value()) << where;
  if (want.lo) {
    EXPECT_EQ(got.lo->value(), want.lo->value()) << where;
  }
  if (want.hi) {
    EXPECT_EQ(got.hi->value(), want.hi->value()) << where;
  }
}

TEST(ScanGrid, RunProducesEverySampleOfEverySite) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  ScanGrid grid{fp, base_config(4), test_rails(fp)};
  const auto result = grid.run();

  ASSERT_EQ(result.sites.size(), 16u);
  EXPECT_EQ(result.produced, 16u * 6u);
  for (const auto& site : result.sites) {
    ASSERT_EQ(site.samples.size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) {
      EXPECT_TRUE(site.valid[k]);
      EXPECT_EQ(site.samples[k].word.width(), 7u);
      // The recorded timestamp is the SENSE sampling edge, a few control
      // cycles after the transaction launch at sample_time(k).
      EXPECT_GE(site.samples[k].timestamp, grid.sample_time(k));
    }
  }
  // Telemetry agrees with the result matrix.
  EXPECT_EQ(grid.telemetry().counter("grid.samples_drained").value(),
            16u * 6u);
}

TEST(ScanGrid, DeterministicAcrossThreadCounts) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  ScanGrid serial{fp, base_config(1), test_rails(fp)};
  ScanGrid parallel{fp, base_config(4), test_rails(fp)};
  const auto a = serial.run();
  const auto b = parallel.run();

  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    for (std::size_t k = 0; k < 6; ++k) {
      EXPECT_EQ(a.sites[i].samples[k].word, b.sites[i].samples[k].word)
          << "site " << i << " sample " << k;
      EXPECT_EQ(a.sites[i].samples[k].bin.to_string(),
                b.sites[i].samples[k].bin.to_string());
    }
  }
}

// Builds a grid, runs it and destroys it: the result outlives its grid.
RunResult run_discarding_grid(const scan::Floorplan& fp, std::size_t threads) {
  ScanGrid grid{fp, base_config(threads), test_rails(fp)};
  return grid.run();
}

TEST(ScanGrid, CopiedSiteResultOutlivesItsGridAndRunResult) {
  // A SiteResult's columns read a capture log shared by the whole run. A
  // copy keeps that log and its decode ladder alive after the grid and the
  // RunResult it came from are gone; the ASan job checks every read below.
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  auto original = std::make_unique<RunResult>(run_discarding_grid(fp, 2));
  const SiteResult copy = original->sites[5];
  original.reset();

  const RunResult fresh = run_discarding_grid(fp, 2);
  const SiteResult& want = fresh.sites[5];
  EXPECT_EQ(copy.site_id, want.site_id);
  ASSERT_EQ(copy.samples.size(), want.samples.size());
  EXPECT_EQ(copy.valid, want.valid);
  for (std::size_t k = 0; k < want.samples.size(); ++k) {
    const core::Measurement got = copy.samples[k];
    const core::Measurement expected = want.samples[k];
    EXPECT_TRUE(copy.valid[k]) << "sample " << k;
    EXPECT_EQ(got.word, expected.word) << "sample " << k;
    EXPECT_EQ(got.code, expected.code) << "sample " << k;
    EXPECT_EQ(got.timestamp.value(), expected.timestamp.value());
    expect_same_bin(got.bin, expected.bin, "sample " + std::to_string(k));
  }
}

TEST(ScanGrid, MatchesSerialScanChainBroadcastSiteForSite) {
  // The refactor's load-bearing guarantee: the grid's words AND bins are
  // bit-identical to the serial PsnScanChain reference at EVERY thread count.
  // The chain captures sample by sample and decodes on each site's own
  // engine ladder, so it checks the grid's batched capture and its one
  // shared drain-pass DecodeLadder against every site.
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);

  // Serial reference: a PsnScanChain over the *same* rails (reconstructed
  // from the grid's published per-site RNG streams) and the same calibrated
  // thermometers, broadcast at the same schedule.
  const auto reference_config = base_config(1);
  const auto& model = calib::calibrated().model;
  const auto factory = test_rails(fp);
  scan::PsnScanChain chain{fp, reference_config.thermometer};
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const auto& site : fp.sites()) {
    auto rng = ScanGrid::site_rng(reference_config.seed, site.id);
    rails.push_back(factory(site, rng));
    chain.attach_site(
        site.id, analog::RailPair{rails.back().get(), nullptr},
        calib::make_paper_thermometer(model, reference_config.thermometer));
  }
  std::vector<std::vector<core::Measurement>> reference;
  for (std::size_t k = 0; k < reference_config.samples_per_site; ++k) {
    const auto snapshot = chain.broadcast_measure(
        Picoseconds{static_cast<double>(k) *
                    reference_config.interval.value()},
        reference_config.code);
    auto& row = reference.emplace_back();
    for (const auto& sm : snapshot) row.push_back(sm.measurement);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const auto config = base_config(threads);
    ScanGrid grid{fp, config, test_rails(fp)};
    const auto result = grid.run();
    ASSERT_EQ(result.sites.size(), reference.front().size());
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      for (std::size_t i = 0; i < result.sites.size(); ++i) {
        const auto& got = result.sites[i].samples[k];
        const auto& want = reference[k][i];
        EXPECT_EQ(got.word, want.word)
            << "threads=" << threads << " site " << i << " sample " << k
            << ": grid diverged from the serial broadcast reference";
        EXPECT_EQ(got.timestamp.value(), want.timestamp.value());
        expect_same_bin(got.bin, want.bin,
                        "threads=" + std::to_string(threads) + " site " +
                            std::to_string(i) + " sample " +
                            std::to_string(k));
      }
    }
  }
}

TEST(ScanGrid, RunIsSingleShot) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  ScanGrid grid{fp, base_config(2), constant_rails(1.0_V)};
  (void)grid.run();
  EXPECT_THROW((void)grid.run(), std::logic_error);
}

TEST(ScanGrid, WorkerExceptionPropagatesToCaller) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 2, 2);
  auto faulty = [](const scan::SensorSite& site, stats::Xoshiro256&)
      -> std::unique_ptr<analog::RailSource> {
    if (site.id == 3) {
      return std::make_unique<analog::CallbackRail>(
          [](Picoseconds) -> Volt { throw std::runtime_error("rail fault"); });
    }
    return std::make_unique<analog::ConstantRail>(Volt{1.0});
  };
  // One shard of four sites, two shards of two, one shard per site: every
  // layout joins its threads and rethrows the rail's exception.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    ScanGrid grid{fp, base_config(threads), faulty};
    EXPECT_THROW((void)grid.run(), std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ScanGrid, AutoRangePolicyTrimsPerSiteAndStaysDeterministic) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.samples_per_site = 10;
  config.code_policy = CodePolicy::kAutoRange;
  // 0.85 V sits outside code 011's window: the per-site controller must
  // walk the code until readings come back in range.
  ScanGrid first{fp, config, constant_rails(Volt{0.85})};
  ScanGrid again{fp, config, constant_rails(Volt{0.85})};
  const auto a = first.run();
  const auto b = again.run();
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_GT(a.sites[i].code_steps, 0u);
    EXPECT_NE(a.sites[i].final_code, config.code);
    EXPECT_EQ(a.sites[i].final_code, b.sites[i].final_code);
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      EXPECT_EQ(a.sites[i].samples[k].word, b.sites[i].samples[k].word);
      EXPECT_EQ(a.sites[i].samples[k].code, b.sites[i].samples[k].code);
    }
  }

  // Serial reference: one behavioral engine per site running the same
  // closed loop (count-1 measure at the policy's code with in-engine decode,
  // then observe), so the grid's words, codes and exact bins are checked
  // against a per-site decode along the whole trim sequence.
  const auto& model = calib::calibrated().model;
  const analog::ConstantRail vdd{Volt{0.85}};
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    core::BehavioralEngine engine =
        calib::make_paper_engine(model, config.thermometer);
    core::CodePolicyConfig policy;
    policy.initial = config.code;
    policy.auto_range = true;
    engine.configure_code_policy(policy);
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      core::MeasureRequest req;
      req.start = first.sample_time(k);
      req.code = engine.context().current_code();
      const core::Measurement want = engine.measure(req, {&vdd, nullptr});
      engine.context().observe(engine.encode(want.word), want.word.width());
      const auto& got = a.sites[i].samples[k];
      EXPECT_EQ(got.word, want.word) << "site " << i << " sample " << k;
      EXPECT_EQ(got.code, want.code) << "site " << i << " sample " << k;
      EXPECT_EQ(got.timestamp.value(), want.timestamp.value());
      expect_same_bin(got.bin, want.bin,
                      "site " + std::to_string(i) + " sample " +
                          std::to_string(k));
    }
    EXPECT_EQ(a.sites[i].final_code, engine.context().current_code());
    EXPECT_EQ(a.sites[i].code_steps, engine.context().code_steps());
  }
}

TEST(ScanGrid, FinalCsvSnapshotIsExported) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.snapshot_csv_path = ::testing::TempDir() + "psnt_grid_snapshot.csv";
  ScanGrid grid{fp, config, constant_rails(1.0_V)};
  (void)grid.run();
  std::ifstream in(config.snapshot_csv_path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("grid.samples_produced,12"), std::string::npos);
  EXPECT_NE(content.str().find("grid.ring_depth_last"), std::string::npos);
}

TEST(ScanGrid, StructuralFidelityAgreesWithBehavioralOnQuietRails) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.samples_per_site = 2;
  ScanGrid behavioral{fp, config, constant_rails(1.0_V)};
  auto structural_config = config;
  structural_config.fidelity = SiteFidelity::kStructural;
  ScanGrid structural{fp, structural_config, constant_rails(1.0_V)};
  const auto b = behavioral.run();
  const auto s = structural.run();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(s.sites[i].samples[k].word, b.sites[i].samples[k].word)
          << "gate-level site " << i << " diverged at sample " << k;
    }
  }
}

TEST(ScanGrid, StructuralSitesSurviveMultipleBatches) {
  // samples_per_site far beyond the dispatch batch forces repeated
  // run_measures calls on the same live site simulation — the continuation
  // path that used to throw "cannot schedule an event in the past" because
  // the first run left an enable-drop event pending mid-cycle. Also checks
  // the scheduler telemetry the grid aggregates for structural sites.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(1);
  config.fidelity = SiteFidelity::kStructural;
  config.batch = 8;  // pin below samples_per_site so several batches run
  config.samples_per_site = 20;
  ScanGrid grid{fp, config, constant_rails(1.0_V)};
  const auto result = grid.run();
  EXPECT_EQ(result.produced, 2u * 20u);
  for (const auto& site : result.sites) {
    ASSERT_EQ(site.samples.size(), 20u);
    for (std::size_t k = 1; k < 20; ++k) {
      EXPECT_EQ(site.samples[k].word, site.samples[0].word)
          << "constant rail must give a constant word (sample " << k << ")";
    }
  }
  EXPECT_GT(grid.telemetry().counter("grid.sim_events").value(), 0u);
  EXPECT_GT(grid.telemetry().counter("grid.structural_ns").value(), 0u);
}

TEST(ScanGrid, StructuralAutoRangeMatchesBehavioralAutoRange) {
  // Auto-range now runs at gate level: the structural sites resolve each
  // measure's code from the context policy and retarget the PG tap through
  // the live MUX selects. On identical rails the trim sequence — and hence
  // every word and code — must match the behavioral sites sample for
  // sample.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.code_policy = CodePolicy::kAutoRange;
  config.samples_per_site = 10;
  ScanGrid behavioral{fp, config, constant_rails(0.84_V)};
  auto structural_config = config;
  structural_config.fidelity = SiteFidelity::kStructural;
  ScanGrid structural{fp, structural_config,
                      constant_rails(0.84_V)};
  const auto b = behavioral.run();
  const auto s = structural.run();
  bool stepped = false;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 10; ++k) {
      EXPECT_EQ(s.sites[i].samples[k].word, b.sites[i].samples[k].word)
          << "site " << i << " sample " << k;
      EXPECT_EQ(s.sites[i].samples[k].code, b.sites[i].samples[k].code)
          << "site " << i << " sample " << k;
      stepped |= s.sites[i].samples[k].code != config.code;
    }
  }
  EXPECT_TRUE(stepped) << "the sagged rail must force a real range step";
}

TEST(ScanGrid, StructuralThreadInvariant) {
  // Structural sites build and run their private netlists on pool threads;
  // the words must not depend on how many threads share the sites.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 2, 2);
  auto config = base_config(1);
  config.fidelity = SiteFidelity::kStructural;
  config.samples_per_site = 4;
  ScanGrid serial{fp, config, test_rails(fp)};
  const auto expected = serial.run();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto threaded_config = config;
    threaded_config.threads = threads;
    ScanGrid threaded{fp, threaded_config, test_rails(fp)};
    const auto actual = threaded.run();
    ASSERT_EQ(actual.sites.size(), expected.sites.size());
    for (std::size_t i = 0; i < expected.sites.size(); ++i) {
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(actual.sites[i].samples[k].word,
                  expected.sites[i].samples[k].word)
            << threads << " threads: site " << i << " sample " << k;
      }
    }
  }
}

TEST(ScanGrid, RejectsInvalidConfigurations) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(1);
  config.samples_per_site = 0;
  EXPECT_THROW(
      (ScanGrid{fp, config, constant_rails(1.0_V)}),
      std::logic_error);

  EXPECT_THROW((ScanGrid{fp, base_config(1), nullptr}), std::logic_error);

  // Non-finite or non-advancing schedules: sample 0 would land at
  // 0 × inf = NaN, or every sample at one instant.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double start : {kNaN, kInf, -kInf}) {
    auto bad = base_config(1);
    bad.start = Picoseconds{start};
    EXPECT_THROW((ScanGrid{fp, bad, constant_rails(1.0_V)}),
                 std::logic_error)
        << "start " << start;
  }
  for (const double interval : {0.0, -1.0, kNaN, kInf}) {
    auto bad = base_config(1);
    bad.interval = Picoseconds{interval};
    EXPECT_THROW((ScanGrid{fp, bad, constant_rails(1.0_V)}),
                 std::logic_error)
        << "interval " << interval;
  }
}

}  // namespace
}  // namespace psnt::grid
