// Property suite for the one SENSE path (DESIGN.md §14):
// BatchedSenseKernel::measure_batch and BehavioralEngine::measure_raw_batch
// must be bit-identical to the reference SensorArray::measure for ANY input —
// random supplies, voltages parked a ULP away from every firing threshold,
// samples straddling the inverter's saturation floor, NaN, arrays the
// compare ladder cannot serve. The guard-band design means "identical or
// flagged back to the reference"; these tests drive both arms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
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

// Resolves a voltage batch the way BehavioralEngine::measure_raw_batch
// does: the compare ladder first, flagged samples through the reference
// array model. `flagged` (optional) accumulates the flagged-sample count.
std::vector<ThermoWord> batch_resolved(const SensorArray& arr,
                                       BatchedSenseKernel& kernel,
                                       const std::vector<double>& v,
                                       DelayCode code, Picoseconds skew,
                                       std::size_t* flagged = nullptr) {
  std::vector<ThermoWord> words(v.size());
  std::vector<std::uint8_t> need_scalar(v.size(), 0);
  const bool vectored = kernel.measure_batch(arr, v.data(), v.size(), code,
                                             skew, words.data(),
                                             need_scalar.data());
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (!vectored || need_scalar[k]) {
      words[k] = arr.measure(Volt{v[k]}, skew);
      if (flagged != nullptr) ++*flagged;
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
  std::size_t samples = 0;
  std::size_t flagged = 0;
  for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
    const DelayCode code{c};
    const auto skew = skew_for(code);
    std::vector<double> v(256);
    for (double& x : v) x = uni(rng);
    const auto words = batch_resolved(arr, kernel, v, code, skew, &flagged);
    samples += v.size();
    for (std::size_t k = 0; k < v.size(); ++k) {
      ASSERT_EQ(words[k], arr.measure(Volt{v[k]}, skew))
          << "code=" << int(c) << " V=" << v[k];
    }
  }
  // The sweep must have exercised the vector arm, not fallen back wholesale.
  EXPECT_GT(samples - flagged, flagged);
}

TEST(BatchSense, ThresholdStraddlersBitIdenticalOrFlagged) {
  // Park supplies a hair on each side of every firing threshold — the exact
  // voltages where one wrong ULP in the compare ladder would flip a bit —
  // plus the delay model's saturation floor around Vt. Identity must hold
  // sample-for-sample; the guard band may route them to the reference, but
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
    // Saturation floor: Vt + 1e-9 is AlphaPowerDelayModel::delay's edge.
    const double vt = 0.32;  // default AlphaPowerParams threshold
    for (const double eps : {0.0, 1e-12, 1e-9, 2e-9, 1e-6}) {
      v.push_back(vt + 1e-9 - eps);
      v.push_back(vt + 1e-9 + eps);
    }
    const auto words = batch_resolved(arr, kernel, v, code, skew);
    for (std::size_t k = 0; k < v.size(); ++k) {
      ASSERT_EQ(words[k], arr.measure(Volt{v[k]}, skew))
          << "code=" << int(c) << " V=" << v[k];
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
  EXPECT_EQ(words[3], arr.measure(Volt{1.0}, skew));
}

TEST(BatchSense, MismatchedDriveIsNotVectorizable) {
  const auto arr = make_mismatched_array();
  BatchedSenseKernel kernel{arr};
  EXPECT_FALSE(kernel.vectorizable());
  const std::vector<double> v = {1.0, 1.1};
  std::vector<ThermoWord> words(v.size());
  std::vector<std::uint8_t> need_scalar(v.size(), 0);
  // Declines without touching the outputs; the caller senses every sample
  // through the array.
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
  EXPECT_TRUE(BatchedSenseKernel{make_uniform_array()}.vectorizable())
      << "the same array without the resolver vectorizes";
  EXPECT_FALSE(BatchedSenseKernel{arr}.vectorizable())
      << "resolver must gate the vector path";
}

TEST(BatchSense, WidthPreconditionIsAlwaysOn) {
  // The width check guards measure_batch in release builds too: a kernel
  // built from one array must refuse an array of a different width instead
  // of sensing against the wrong cached firing ladders.
  const auto seven = make_uniform_array();
  const auto five = SensorArray::linear(analog::AlphaPowerDelayModel{},
                                        analog::FlipFlopTimingModel{}, 1.6_pF,
                                        0.12_pF, 5);
  BatchedSenseKernel kernel{seven};
  const auto skew = skew_for(DelayCode{1});
  std::vector<double> v = {1.0};
  ThermoWord w;
  std::uint8_t flag = 0;
  EXPECT_THROW((void)kernel.measure_batch(five, v.data(), 1, DelayCode{1},
                                          skew, &w, &flag),
               std::logic_error);
}

TEST(BatchSense, AdoptedLaddersAreBitIdenticalToOwnSolve) {
  // The scan-grid amortization: one kernel solves the per-code firing
  // ladder, every value-identical sibling adopts it. The adopted ladder must
  // be the exact doubles the sibling's own solve would have produced, so the
  // resolved words match bit-for-bit.
  const auto arr = make_uniform_array();
  BatchedSenseKernel solver{arr};
  ASSERT_TRUE(solver.vectorizable());
  const DelayCode code{3};
  const auto skew = skew_for(code);
  solver.prewarm(code, skew);

  BatchedSenseKernel adopter{arr};
  BatchedSenseKernel reference{arr};
  EXPECT_EQ(adopter.adopt_ladders(solver), 1u);

  std::mt19937_64 rng(414);
  std::uniform_real_distribution<double> uni(0.2, 1.8);
  std::vector<double> v(128);
  for (double& x : v) x = uni(rng);
  const auto adopted_words = batch_resolved(arr, adopter, v, code, skew);
  const auto own_words = batch_resolved(arr, reference, v, code, skew);
  for (std::size_t k = 0; k < v.size(); ++k) {
    ASSERT_EQ(adopted_words[k], own_words[k]) << "V=" << v[k];
  }
}

TEST(BatchSense, AdoptRefusesValueDifferentArrays) {
  // A single differing parameter bit disqualifies the share: the ladders are
  // pure functions of the array doubles, so cross-adoption would sense
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
// Engine level: measure_raw_batch against the array reference and against a
// loop of count-1 calls, on noisy rails, across codes, targets and hooks.
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
      ASSERT_TRUE(BatchedSenseKernel{batch_engine.high_sense()}.vectorizable());

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
  // batch in sample order and produce the same corruption sequence as a
  // loop of count-1 calls.
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

void expect_same_bin(const VoltageBin& a, const VoltageBin& b) {
  ASSERT_EQ(a.lo.has_value(), b.lo.has_value());
  ASSERT_EQ(a.hi.has_value(), b.hi.has_value());
  if (a.lo) EXPECT_EQ(a.lo->value(), b.lo->value());
  if (a.hi) EXPECT_EQ(a.hi->value(), b.hi->value());
}

struct NamedArray {
  const char* name;
  SensorArray array;
};

// One array per arm of the SENSE path: the calibrated paper array takes the
// compare ladder; a mismatched-drive array and a deep-metastability-resolver
// array are not vectorizable, so every sample goes to SensorArray::measure.
std::vector<NamedArray> reference_arrays() {
  const auto& model = calib::calibrated().model;
  std::vector<SensorCell> mismatched;
  for (std::size_t i = 0; i < model.array_loads.size(); ++i) {
    analog::AlphaPowerParams p = model.inverter.params();
    p.drive_k_pf_per_ps *= 1.0 + 0.004 * (static_cast<double>(i) - 3.0);
    mismatched.emplace_back(analog::AlphaPowerDelayModel{p}, model.flipflop,
                            model.array_loads[i]);
  }
  analog::FlipFlopTimingModel resolver_ff = model.flipflop;
  resolver_ff.set_deep_meta_resolver(
      [](Picoseconds margin, bool new_value, bool old_value) {
        return margin.value() > 0.25 ? new_value : old_value;
      },
      Picoseconds{0.5});
  return {{"paper", calib::make_paper_array(model)},
          {"mismatched-drive", SensorArray{std::move(mismatched)}},
          {"deep-resolver", SensorArray::with_loads(model.inverter, resolver_ff,
                                                    model.array_loads)}};
}

TEST(BatchEngine, EveryWordBinAndRangeMatchesTheArrayReference) {
  // The anchor of the one SENSE path: whatever arm a sample takes, its word
  // is SensorArray::measure at the supply the engine read at launch, its bin
  // is SensorArray::decode (decode_gnd for GND), and the engine's ranges
  // are SensorArray::dynamic_range — for every code, target and array, in
  // count-1 measure() calls and in one count-96 batch. The LOW-SENSE array
  // is the next one in the list, so a HIGH/LOW mix-up cannot pass.
  const PulseGenerator pg{calib::calibrated().model.pg_config()};
  const auto vdd = noisy_rail(1.0, 0.06);
  const auto gnd = noisy_rail(0.02, 0.03);
  const analog::RailPair rails{&vdd, &gnd};
  const Picoseconds interval{7500.0};
  constexpr std::size_t kCount = 96;

  const auto arrays = reference_arrays();
  ASSERT_TRUE(BatchedSenseKernel{arrays[0].array}.vectorizable());
  ASSERT_FALSE(BatchedSenseKernel{arrays[1].array}.vectorizable());
  ASSERT_FALSE(BatchedSenseKernel{arrays[2].array}.vectorizable());

  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const SensorArray& high = arrays[a].array;
    const SensorArray& low = arrays[(a + 1) % arrays.size()].array;
    for (std::uint8_t c = 0; c < DelayCode::kCount; ++c) {
      for (const SenseTarget target : {SenseTarget::kVdd, SenseTarget::kGnd}) {
        for (const std::size_t count : {std::size_t{1}, kCount}) {
          const bool is_vdd = target == SenseTarget::kVdd;
          SCOPED_TRACE(std::string(arrays[a].name) +
                       " code=" + std::to_string(int(c)) +
                       (is_vdd ? " vdd" : " gnd") +
                       " count=" + std::to_string(count));
          const DelayCode code{c};
          const Picoseconds skew = pg.skew(code);
          BehavioralEngine engine{high, low, pg, ThermometerConfig{}};
          const Volt v_nom = engine.config().v_nominal;
          const SensorArray& array = is_vdd ? high : low;

          const DynamicRange vref = high.dynamic_range(skew);
          const DynamicRange gref = low.dynamic_range(skew);
          const DynamicRange vr = engine.vdd_range(code);
          const DynamicRange gr = engine.gnd_range(code);
          EXPECT_EQ(vr.all_errors_below.value(), vref.all_errors_below.value());
          EXPECT_EQ(vr.no_errors_above.value(), vref.no_errors_above.value());
          EXPECT_EQ(gr.all_errors_below.value(),
                    (v_nom - gref.no_errors_above).value());
          EXPECT_EQ(gr.no_errors_above.value(),
                    (v_nom - gref.all_errors_below).value());

          MeasureRequest first = request_at(1000.0, target);
          first.code = code;
          std::vector<Measurement> got;
          if (count == 1) {
            for (std::size_t k = 0; k < kCount; ++k) {
              MeasureRequest req = first;
              req.start = first.start + Picoseconds{interval.value() *
                                                    static_cast<double>(k)};
              got.push_back(engine.measure(req, rails));
            }
          } else {
            std::vector<RawSample> raws;
            engine.measure_raw_batch(first, interval, count, rails, raws);
            for (const RawSample& raw : raws) {
              got.push_back(assemble_measurement(
                  raw, is_vdd ? engine.decode(raw.word, code)
                              : engine.decode_gnd_word(raw.word, code)));
            }
          }
          ASSERT_EQ(got.size(), kCount);
          for (std::size_t k = 0; k < kCount; ++k) {
            const Measurement& m = got[k];
            const Volt v_eff = is_vdd ? rails.effective(m.timestamp)
                                      : v_nom - gnd.at(m.timestamp);
            ASSERT_EQ(m.word, array.measure(v_eff, skew)) << "k=" << k;
            expect_same_bin(m.bin, is_vdd ? array.decode(m.word, skew)
                                          : array.decode_gnd(m.word, skew,
                                                             v_nom));
          }
        }
      }
    }
  }
}

// Words a behavioral handle over `rail` captures for kRailSamples samples
// spaced by kRailInterval, in batches of `batch`.
constexpr std::size_t kRailSamples = 96;
const Picoseconds kRailInterval{10000.0};

std::vector<RawSample> capture_through_handle(const analog::RailSource& rail,
                                              bool fault_hooks,
                                              std::size_t batch) {
  EngineSiteOptions options;
  options.fault_hooks = fault_hooks;
  auto handle = make_behavioral_engine(make_engine(),
                                       analog::RailPair{&rail, nullptr},
                                       options);
  std::vector<RawSample> out;
  for (std::size_t k = 0; k < kRailSamples; k += batch) {
    handle->measure_raw_batch(
        request_at(kRailInterval.value() * static_cast<double>(k)),
        kRailInterval, batch, out);
  }
  return out;
}

TEST(BatchEngine, DegenerateRailsReadAsTheArrayReference) {
  // Rail inputs a deployment must survive: non-finite, zero, negative and
  // absurdly high supplies, and one NaN sample in the middle of a batch.
  // Through the handle, with fault hooks off and on, each reads as
  // SensorArray::measure at that voltage — the all-error word for every
  // non-finite or non-positive supply, the all-pass word at 1e6 V — with no
  // throw, and the same words in one batch as in count-1 calls.
  const SensorArray array = make_engine().high_sense();
  const Picoseconds skew =
      make_engine().pulse_generator().skew(DelayCode{3});  // policy default
  const std::size_t all_ones = array.bits();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  struct RailCase {
    double volts;
    std::size_t ones;
  };
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  std::vector<std::vector<std::size_t>> expected_ones;
  for (const RailCase rc : {RailCase{kNaN, 0}, RailCase{kInf, 0},
                            RailCase{-kInf, 0}, RailCase{0.0, 0},
                            RailCase{-1.0, 0}, RailCase{1e6, all_ones}}) {
    rails.push_back(std::make_unique<analog::ConstantRail>(Volt{rc.volts}));
    expected_ones.emplace_back(kRailSamples, rc.ones);
  }
  // A healthy rail that reads NaN for exactly the middle sample.
  const double t_lo = kRailInterval.value() * (kRailSamples / 2);
  const double t_hi = t_lo + kRailInterval.value();
  const auto healthy = noisy_rail(1.0, 0.02);
  rails.push_back(std::make_unique<analog::CallbackRail>(
      [&healthy, t_lo, t_hi](Picoseconds t) {
        return t.value() >= t_lo && t.value() < t_hi ? Volt{kNaN}
                                                     : healthy.at(t);
      }));
  expected_ones.emplace_back();  // checked against the reference only

  for (std::size_t r = 0; r < rails.size(); ++r) {
    const analog::RailSource& rail = *rails[r];
    for (const bool fault_hooks : {false, true}) {
      SCOPED_TRACE("rail " + std::to_string(r) +
                   (fault_hooks ? " hooks on" : " hooks off"));
      std::vector<RawSample> batch;
      std::vector<RawSample> single;
      ASSERT_NO_THROW(batch = capture_through_handle(rail, fault_hooks,
                                                     kRailSamples));
      ASSERT_NO_THROW(single = capture_through_handle(rail, fault_hooks, 1));
      ASSERT_EQ(batch.size(), kRailSamples);
      ASSERT_EQ(single.size(), kRailSamples);
      for (std::size_t k = 0; k < kRailSamples; ++k) {
        ASSERT_EQ(batch[k].word, single[k].word) << "k=" << k;
        ASSERT_EQ(batch[k].word, array.measure(rail.at(batch[k].timestamp),
                                               skew))
            << "k=" << k;
        if (!expected_ones[r].empty()) {
          EXPECT_EQ(batch[k].word.count_ones(), expected_ones[r][k])
              << "k=" << k;
        }
      }
      if (expected_ones[r].empty()) {
        EXPECT_EQ(batch[kRailSamples / 2].word.count_ones(), 0u);
        EXPECT_GT(batch[kRailSamples / 2 - 1].word.count_ones(), 0u);
        EXPECT_GT(batch[kRailSamples / 2 + 1].word.count_ones(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace psnt::core
