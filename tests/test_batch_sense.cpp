// Property suite for the vectorized batch SENSE path (DESIGN.md §14):
// BatchedSenseKernel::measure_batch and BehavioralEngine::measure_raw_batch
// must be bit-identical to the scalar reference for ANY input — random
// supplies, voltages parked a ULP away from every firing threshold, samples
// straddling the fast_path() saturation boundary, NaN. The guard-band design
// means "identical or flagged back to the scalar path"; these tests drive
// both arms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "analog/rail.h"
#include "calib/fit.h"
#include "core/measure_engine.h"
#include "core/sense_kernel.h"
#include "core/sensor_array.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

SensorArray make_uniform_array() {
  return SensorArray::linear(analog::AlphaPowerDelayModel{},
                             analog::FlipFlopTimingModel{}, 1.6_pF, 0.12_pF,
                             7);
}

SensorArray make_mismatched_array() {
  std::vector<SensorCell> cells;
  for (std::size_t i = 0; i < 7; ++i) {
    analog::AlphaPowerParams p;
    p.drive_k_pf_per_ps = 0.030 + 0.001 * static_cast<double>(i);
    cells.emplace_back(analog::AlphaPowerDelayModel{p},
                       analog::FlipFlopTimingModel{},
                       Picofarad{1.6 + 0.12 * static_cast<double>(i)});
  }
  return SensorArray{std::move(cells)};
}

Picoseconds skew_for(DelayCode code) {
  return Picoseconds{120.0 + 12.0 * static_cast<double>(code.value())};
}

// The scalar reference the batch path must reproduce bit-for-bit: the
// engine's per-sample selection between the kernel fast path and the raw
// array model.
ThermoWord scalar_reference(const SensorArray& arr,
                            const BatchedSenseKernel& kernel, double v,
                            Picoseconds skew) {
  if (kernel.fast_path(Volt{v})) return kernel.measure(arr, Volt{v}, skew);
  return arr.measure(Volt{v}, skew);
}

// Resolves a voltage batch the way BehavioralEngine::capture_batch does:
// vectorized compare first, flagged samples through the scalar reference.
std::vector<ThermoWord> batch_resolved(const SensorArray& arr,
                                       BatchedSenseKernel& kernel,
                                       const std::vector<double>& v,
                                       DelayCode code, Picoseconds skew) {
  std::vector<ThermoWord> words(v.size());
  std::vector<std::uint8_t> need_scalar(v.size(), 0);
  const bool vectored = kernel.measure_batch(arr, v.data(), v.size(), code,
                                             skew, words.data(),
                                             need_scalar.data());
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (!vectored || need_scalar[k]) {
      words[k] = scalar_reference(arr, kernel, v[k], skew);
    }
  }
  return words;
}

TEST(BatchSense, RandomSuppliesBitIdenticalAcrossAllCodes) {
  const auto arr = make_uniform_array();
  BatchedSenseKernel kernel{arr};
  ASSERT_TRUE(kernel.vectorizable());

  std::mt19937_64 rng(20260809);
  std::uniform_real_distribution<double> uni(0.0, 1.8);
  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    const DelayCode code{c};
    const auto skew = skew_for(code);
    std::vector<double> v(256);
    for (double& x : v) x = uni(rng);
    const auto words = batch_resolved(arr, kernel, v, code, skew);
    for (std::size_t k = 0; k < v.size(); ++k) {
      const ThermoWord ref = scalar_reference(arr, kernel, v[k], skew);
      ASSERT_EQ(words[k], ref) << "code=" << int(c) << " V=" << v[k];
    }
  }
  // The sweep must have exercised the vector arm, not fallen back wholesale.
  EXPECT_GT(kernel.batch_vector_samples(), kernel.batch_scalar_fallbacks());
}

TEST(BatchSense, ThresholdStraddlersBitIdenticalOrFlagged) {
  // Park supplies a hair on each side of every firing threshold — the exact
  // voltages where one wrong ULP in the compare ladder would flip a bit —
  // plus the fast_path() saturation boundary around Vt. Identity must hold
  // sample-for-sample; the guard band may route them to the scalar arm, but
  // the resolved word must match regardless.
  const auto arr = make_uniform_array();
  BatchedSenseKernel kernel{arr};
  ASSERT_TRUE(kernel.vectorizable());

  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    const DelayCode code{c};
    const auto skew = skew_for(code);
    std::vector<double> v;
    for (const Volt& thr : arr.sorted_thresholds(skew)) {
      const double b = thr.value();
      for (const double eps : {1e-12, 1e-9, 1e-6}) {
        v.push_back(b - eps);
        v.push_back(b + eps);
      }
      v.push_back(b);
      v.push_back(std::nextafter(b, 0.0));
      v.push_back(std::nextafter(b, 2.0));
    }
    // fast_path() saturation boundary: Vt + 1e-9 is the exact guard edge.
    const double vt = 0.32;  // default AlphaPowerParams threshold
    for (const double eps : {0.0, 1e-12, 1e-9, 2e-9, 1e-6}) {
      v.push_back(vt + 1e-9 - eps);
      v.push_back(vt + 1e-9 + eps);
    }
    const auto words = batch_resolved(arr, kernel, v, code, skew);
    for (std::size_t k = 0; k < v.size(); ++k) {
      const ThermoWord ref = scalar_reference(arr, kernel, v[k], skew);
      ASSERT_EQ(words[k], ref) << "code=" << int(c) << " V=" << v[k];
    }
  }
}

TEST(BatchSense, NonFiniteSuppliesAreFlaggedNotSensed) {
  const auto arr = make_uniform_array();
  BatchedSenseKernel kernel{arr};
  ASSERT_TRUE(kernel.vectorizable());
  const DelayCode code{3};
  const auto skew = skew_for(code);
  const std::vector<double> v = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(), 1.0};
  std::vector<ThermoWord> words(v.size());
  std::vector<std::uint8_t> need_scalar(v.size(), 2);
  ASSERT_TRUE(kernel.measure_batch(arr, v.data(), v.size(), code, skew,
                                   words.data(), need_scalar.data()));
  EXPECT_EQ(need_scalar[0], 1) << "NaN must fall back";
  EXPECT_EQ(need_scalar[1], 1) << "+inf is outside the compare window";
  EXPECT_EQ(need_scalar[2], 1) << "-inf is outside the compare window";
  EXPECT_EQ(need_scalar[3], 0) << "nominal supply stays on the vector arm";
  EXPECT_EQ(words[3], kernel.measure(arr, Volt{1.0}, skew));
}

TEST(BatchSense, MismatchedDriveIsNotVectorizable) {
  const auto arr = make_mismatched_array();
  BatchedSenseKernel kernel{arr};
  EXPECT_FALSE(kernel.vectorizable());
  const std::vector<double> v = {1.0, 1.1};
  std::vector<ThermoWord> words(v.size());
  std::vector<std::uint8_t> need_scalar(v.size(), 0);
  // Declines without touching the outputs; caller runs the scalar loop.
  EXPECT_FALSE(kernel.measure_batch(arr, v.data(), v.size(), DelayCode{2},
                                    skew_for(DelayCode{2}), words.data(),
                                    need_scalar.data()));
}

TEST(BatchSense, DeepMetaResolverDisablesTheVectorPath) {
  // A Monte-Carlo resolver makes sampling non-deterministic near zero
  // margin; the compare ladder cannot represent that, so the kernel must
  // refuse to vectorize the whole array.
  analog::FlipFlopTimingModel ff;
  ff.set_deep_meta_resolver(
      [](Picoseconds, bool new_value, bool) { return new_value; },
      Picoseconds{0.5});
  const auto arr = SensorArray::linear(analog::AlphaPowerDelayModel{}, ff,
                                       1.6_pF, 0.12_pF, 7);
  BatchedSenseKernel kernel{arr};
  EXPECT_TRUE(kernel.uniform()) << "drive is still uniform";
  EXPECT_FALSE(kernel.vectorizable()) << "resolver must gate the vector path";
}

TEST(BatchSense, WidthPreconditionIsAlwaysOn) {
  // The width check guards every entry point in release builds too: a kernel
  // built from one array must refuse an array of a different width instead
  // of decoding against the wrong cached ladders.
  const auto seven = make_uniform_array();
  const auto five = SensorArray::linear(analog::AlphaPowerDelayModel{},
                                        analog::FlipFlopTimingModel{}, 1.6_pF,
                                        0.12_pF, 5);
  BatchedSenseKernel kernel{seven};
  const auto skew = skew_for(DelayCode{1});
  EXPECT_THROW((void)kernel.measure(five, Volt{1.0}, skew), std::logic_error);
  EXPECT_THROW((void)kernel.sorted_thresholds(five, DelayCode{1}, skew),
               std::logic_error);
  EXPECT_THROW((void)kernel.dynamic_range(five, DelayCode{1}, skew),
               std::logic_error);
  std::vector<double> v = {1.0};
  ThermoWord w;
  std::uint8_t flag = 0;
  EXPECT_THROW((void)kernel.measure_batch(five, v.data(), 1, DelayCode{1},
                                          skew, &w, &flag),
               std::logic_error);
}

TEST(BatchSense, AdoptedLaddersAreBitIdenticalToOwnSolve) {
  // The scan-grid amortization: one kernel solves the per-code tables, every
  // value-identical sibling adopts them. The adopted tables must be the
  // exact doubles the sibling's own solve would have produced, so the
  // resolved words match bit-for-bit.
  const auto arr = make_uniform_array();
  BatchedSenseKernel solver{arr};
  ASSERT_TRUE(solver.vectorizable());
  const DelayCode code{3};
  const auto skew = skew_for(code);
  solver.prewarm(code, skew);
  (void)solver.sorted_thresholds(arr, code, skew);

  BatchedSenseKernel adopter{arr};
  BatchedSenseKernel reference{arr};
  EXPECT_GT(adopter.adopt_ladders(solver), 0u);

  std::mt19937_64 rng(414);
  std::uniform_real_distribution<double> uni(0.2, 1.8);
  std::vector<double> v(128);
  for (double& x : v) x = uni(rng);
  const auto adopted_words = batch_resolved(arr, adopter, v, code, skew);
  const auto own_words = batch_resolved(arr, reference, v, code, skew);
  for (std::size_t k = 0; k < v.size(); ++k) {
    ASSERT_EQ(adopted_words[k], own_words[k]) << "V=" << v[k];
  }
  // The adopted decode ladder is equally exact, threshold for threshold.
  const auto& adopted_thr = adopter.sorted_thresholds(arr, code, skew);
  const auto& own_thr = reference.sorted_thresholds(arr, code, skew);
  ASSERT_EQ(adopted_thr.size(), own_thr.size());
  for (std::size_t i = 0; i < own_thr.size(); ++i) {
    EXPECT_EQ(adopted_thr[i].value(), own_thr[i].value());
  }
  // ...and the adopter really used the shared table instead of re-solving.
  EXPECT_EQ(adopter.ladder_solves(), 0u);
  EXPECT_EQ(reference.ladder_solves(), 1u);
}

TEST(BatchSense, AdoptRefusesValueDifferentArrays) {
  // A single differing parameter bit disqualifies the share: the tables are
  // pure functions of the array doubles, so cross-adoption would decode
  // against the wrong thresholds.
  const auto uniform = make_uniform_array();
  const auto mismatched = make_mismatched_array();
  BatchedSenseKernel solver{uniform};
  solver.prewarm(DelayCode{2}, skew_for(DelayCode{2}));
  BatchedSenseKernel other{mismatched};
  EXPECT_EQ(other.adopt_ladders(solver), 0u);

  // Same model family but one more cell: width fingerprint must refuse too.
  const auto wider = SensorArray::linear(analog::AlphaPowerDelayModel{},
                                         analog::FlipFlopTimingModel{}, 1.6_pF,
                                         0.12_pF, 8);
  BatchedSenseKernel wide_kernel{wider};
  EXPECT_EQ(wide_kernel.adopt_ladders(solver), 0u);
}

// ---------------------------------------------------------------------------
// Engine level: measure_raw_batch against the per-sample
// transaction loop, on noisy rails, across codes, targets and hooks.
// ---------------------------------------------------------------------------

BehavioralEngine make_engine() {
  return calib::make_paper_engine(calib::calibrated().model);
}

MeasureRequest request_at(double ps, SenseTarget target = SenseTarget::kVdd) {
  MeasureRequest req;
  req.start = Picoseconds{ps};
  req.target = target;
  return req;
}

// A deterministic noisy rail: nominal plus a two-tone ripple that sweeps
// samples across several thermometer bins over a batch.
analog::CallbackRail noisy_rail(double v0, double amp) {
  return analog::CallbackRail([v0, amp](Picoseconds t) {
    const double x = t.value() * 1e-3;
    return Volt{v0 + amp * (std::sin(0.37 * x) + 0.5 * std::sin(1.13 * x))};
  });
}

void expect_same_raw(const RawSample& a, const RawSample& b,
                     const std::string& what) {
  ASSERT_EQ(a.word, b.word) << what;
  EXPECT_EQ(a.timestamp.value(), b.timestamp.value()) << what;
  EXPECT_EQ(a.code.value(), b.code.value()) << what;
  EXPECT_EQ(a.target, b.target) << what;
}

TEST(BatchEngine, RawBatchMatchesRawLoopAcrossCodesAndTargets) {
  const auto vdd = noisy_rail(1.0, 0.06);
  const analog::ConstantRail gnd{0.015_V};
  const analog::RailPair rails{&vdd, &gnd};
  const Picoseconds interval{7500.0};
  constexpr std::size_t kCount = 96;

  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    for (const SenseTarget target : {SenseTarget::kVdd, SenseTarget::kGnd}) {
      BehavioralEngine batch_engine = make_engine();
      BehavioralEngine serial_engine = make_engine();
      ASSERT_TRUE(batch_engine.batch_capable());

      MeasureRequest first = request_at(1000.0, target);
      first.code = DelayCode{c};
      std::vector<RawSample> batch;
      batch_engine.measure_raw_batch(first, interval, kCount, rails, batch);
      ASSERT_EQ(batch.size(), kCount);

      for (std::size_t k = 0; k < kCount; ++k) {
        MeasureRequest req = first;
        req.start = first.start + Picoseconds{interval.value() *
                                              static_cast<double>(k)};
        const RawSample ref = serial_engine.measure_raw(req, rails);
        expect_same_raw(batch[k], ref,
                        "code=" + std::to_string(int(c)) + " target=" +
                            (target == SenseTarget::kVdd ? "vdd" : "gnd") +
                            " k=" + std::to_string(k));
      }
      EXPECT_EQ(batch_engine.fsm().completed_measures(), serial_engine.fsm().completed_measures())
          << "batch must retire the same FSM transaction count";
    }
  }
}

TEST(BatchEngine, WordHookAppliesPerSampleInOrder) {
  // A stateful hook (flips the low bit of every third word) must see the
  // batch in sample order and produce the same corruption sequence as the
  // serial loop.
  const auto vdd = noisy_rail(1.0, 0.05);
  const analog::RailPair rails{&vdd, nullptr};
  const Picoseconds interval{6000.0};
  constexpr std::size_t kCount = 48;

  const auto install_hook = [](BehavioralEngine& e) {
    auto n = std::make_shared<std::size_t>(0);
    e.context().set_word_hook([n](ThermoWord& w) {
      if ((*n)++ % 3 == 0) w.set_bit(0, !w.bit(0));
    });
  };
  BehavioralEngine batch_engine = make_engine();
  BehavioralEngine serial_engine = make_engine();
  install_hook(batch_engine);
  install_hook(serial_engine);

  std::vector<RawSample> batch;
  batch_engine.measure_raw_batch(request_at(0.0), interval, kCount, rails,
                                 batch);
  for (std::size_t k = 0; k < kCount; ++k) {
    MeasureRequest req = request_at(interval.value() *
                                    static_cast<double>(k));
    const RawSample ref = serial_engine.measure_raw(req, rails);
    ASSERT_EQ(batch[k].word, ref.word) << "k=" << k;
  }
}

TEST(BatchEngine, FaultHookedHandleStaysIdenticalThroughBatch) {
  // Through the type-erased handle with fault hooks on (rail-offset wrapper
  // installed) and a nonzero offset: one batch capture reads the same offset
  // rail per sample as a loop of count-1 captures.
  const auto& model = calib::calibrated().model;
  const auto vdd = noisy_rail(1.0, 0.04);
  const analog::RailPair rails{&vdd, nullptr};
  EngineSiteOptions options;
  options.fault_hooks = true;

  auto batch_handle =
      make_behavioral_engine(calib::make_paper_engine(model), rails, options);
  auto serial_handle =
      make_behavioral_engine(calib::make_paper_engine(model), rails, options);
  batch_handle->context().set_rail_offset(-0.0375);
  serial_handle->context().set_rail_offset(-0.0375);

  const Picoseconds interval{9000.0};
  constexpr std::size_t kCount = 96;
  MeasureRequest first = request_at(500.0);
  std::vector<RawSample> batch;
  batch_handle->measure_raw_batch(first, interval, kCount, batch);
  ASSERT_EQ(batch.size(), kCount);
  for (std::size_t k = 0; k < kCount; ++k) {
    MeasureRequest req = first;
    req.start = first.start +
                Picoseconds{interval.value() * static_cast<double>(k)};
    std::vector<RawSample> one;
    serial_handle->measure_raw_batch(req, interval, 1, one);
    ASSERT_EQ(one.size(), 1u);
    ASSERT_EQ(batch[k].word, one.front().word) << "k=" << k;
    EXPECT_EQ(batch[k].timestamp.value(), one.front().timestamp.value());
  }
}

}  // namespace
}  // namespace psnt::core
