// Conformance suite for the MeasureEngine layer: every registered backend
// (behavioral model, gate-level structural netlist) must honour the same
// PREPARE/SENSE transaction semantics through the one capture call
// (measure_raw_batch), the EngineContext hook surface (word hook + rail
// offset), the delay-code policy, and decode/encode coherence of the words
// it captures. New backends register a factory in backends() and inherit
// the whole suite.
#include "core/measure_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "calib/fit.h"
#include "core/range_tuner.h"
#include "core/streaming_encoder.h"
#include "core/thermometer.h"

namespace psnt::core {
namespace {

using namespace psnt::literals;

struct BackendSpec {
  std::string name;
  // Builds a fresh engine bound to `rails` with the given site options.
  std::function<EngineHandle(analog::RailPair, const EngineSiteOptions&)>
      build;
};

std::vector<BackendSpec> backends() {
  const auto& model = calib::calibrated().model;
  std::vector<BackendSpec> out;
  out.push_back(
      {"behavioral", [&model](analog::RailPair rails,
                              const EngineSiteOptions& options) {
         return make_behavioral_engine(calib::make_paper_engine(model), rails,
                                       options);
       }});
  out.push_back(
      {"structural", [&model](analog::RailPair rails,
                              const EngineSiteOptions& options) {
         return make_structural_engine(calib::make_paper_array(model),
                                       PulseGenerator{model.pg_config()}, rails,
                                       ThermometerConfig{}.control_period,
                                       options);
       }});
  return out;
}

// One transaction through the one capture call, decoded the way the grid's
// drain decodes it: the shared paper DecodeLadder.
Measurement measure_one(IMeasureEngine& engine, const MeasureRequest& req) {
  static const DecodeLadder ladder =
      calib::make_paper_decode_ladder(calib::calibrated().model);
  std::vector<RawSample> raw;
  engine.measure_raw_batch(req, Picoseconds{0.0}, 1, raw);
  return assemble_measurement(raw.front(),
                              ladder.decode(raw.front().word, raw.front().code));
}

class MeasureEngineConformance : public ::testing::TestWithParam<BackendSpec> {
 protected:
  static MeasureRequest request_at(double ps) {
    MeasureRequest req;
    req.start = Picoseconds{ps};
    return req;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, MeasureEngineConformance, ::testing::ValuesIn(backends()),
    [](const ::testing::TestParamInfo<BackendSpec>& info) {
      return info.param.name;
    });

TEST_P(MeasureEngineConformance, MeasureIsRepeatableOnQuietRails) {
  const analog::ConstantRail vdd{1.0_V};
  auto a = GetParam().build({&vdd, nullptr}, {});
  auto b = GetParam().build({&vdd, nullptr}, {});
  const auto ma = measure_one(*a, request_at(0.0));
  const auto mb = measure_one(*b, request_at(0.0));
  EXPECT_EQ(ma.word, mb.word) << "same backend, same rails, same request";
  EXPECT_EQ(ma.word.width(), a->word_bits());
  EXPECT_GE(ma.timestamp.value(), 0.0)
      << "timestamp is the SENSE edge, after the transaction launch";
  EXPECT_TRUE(ma.bin.in_range()) << "nominal supply must decode in range";
}

TEST_P(MeasureEngineConformance, WordIsMonotoneInSupplyVoltage) {
  // More supply overdrive → more cells meet timing → count_ones must not
  // decrease. This is the thermometer property every backend inherits from
  // the physical array.
  std::size_t prev_ones = 0;
  for (const double v : {0.88, 0.95, 1.0, 1.05, 1.12}) {
    const analog::ConstantRail vdd{Volt{v}};
    auto engine = GetParam().build({&vdd, nullptr}, {});
    const auto m = measure_one(*engine, request_at(0.0));
    EXPECT_GE(m.word.count_ones(), prev_ones) << "V=" << v;
    prev_ones = m.word.count_ones();
  }
  EXPECT_GT(prev_ones, 0u) << "1.12 V must pass at least one cell";
}

TEST_P(MeasureEngineConformance, WordHookSeesAndCorruptsEveryWord) {
  const analog::ConstantRail vdd{1.0_V};
  auto clean = GetParam().build({&vdd, nullptr}, {});
  const auto reference = measure_one(*clean, request_at(0.0));

  auto hooked = GetParam().build({&vdd, nullptr}, {});
  std::size_t hook_calls = 0;
  hooked->context().set_word_hook([&hook_calls](ThermoWord& word) {
    ++hook_calls;
    word.set_bit(0, false);  // stuck-at-0 DS node on cell 0
  });
  const auto corrupted = measure_one(*hooked, request_at(0.0));
  EXPECT_EQ(hook_calls, 1u);
  EXPECT_FALSE(corrupted.word.bit(0));
  ThermoWord expected = reference.word;
  expected.set_bit(0, false);
  EXPECT_EQ(corrupted.word, expected)
      << "hook must act on the raw sensed word, nothing else";

  hooked->context().clear_word_hook();
  const auto clean_again = measure_one(*hooked, request_at(20000.0));
  EXPECT_EQ(clean_again.word.count_ones(), reference.word.count_ones())
      << "clearing the hook restores the clean path";
  EXPECT_EQ(hook_calls, 1u);
}

TEST_P(MeasureEngineConformance, RailOffsetSagsTheWordThenRestores) {
  const analog::ConstantRail vdd{1.0_V};
  auto plain = GetParam().build({&vdd, nullptr}, {});
  const auto reference = measure_one(*plain, request_at(0.0));

  EngineSiteOptions options;
  options.fault_hooks = true;  // installs the ContextOffsetRail view
  auto engine = GetParam().build({&vdd, nullptr}, options);
  // Offset 0.0 is the identity: bit-identical to the hook-free engine.
  const auto at_zero = measure_one(*engine, request_at(0.0));
  EXPECT_EQ(at_zero.word, reference.word);

  engine->context().set_rail_offset(-0.15);
  const auto sagged = measure_one(*engine, request_at(20000.0));
  EXPECT_LT(sagged.word.count_ones(), reference.word.count_ones())
      << "a 150 mV droop must cost timing slack";

  engine->context().set_rail_offset(0.0);
  const auto recovered = measure_one(*engine, request_at(40000.0));
  EXPECT_EQ(recovered.word.count_ones(), reference.word.count_ones());
}

TEST_P(MeasureEngineConformance, DecodeBracketsTheSupplyAndEncodeAgrees) {
  const analog::ConstantRail vdd{1.0_V};
  auto engine = GetParam().build({&vdd, nullptr}, {});
  const auto m = measure_one(*engine, request_at(0.0));
  ASSERT_TRUE(m.bin.in_range());
  EXPECT_LE(m.bin.lo->value(), 1.0);
  EXPECT_GE(m.bin.hi->value(), 1.0);
  // The ladder's bin for the captured (word, code) is the array's own
  // decode — the independent reference the drain must agree with.
  const auto& model = calib::calibrated().model;
  const auto reference =
      calib::make_paper_array(model).decode(
          m.word, PulseGenerator{model.pg_config()}.skew(m.code));
  EXPECT_EQ(reference.to_string(), m.bin.to_string());
  const auto enc = engine->encode(m.word);
  EXPECT_EQ(enc.count, m.word.count_ones());
}

TEST_P(MeasureEngineConformance, CodeWindowResolvesTheCodeOnceAtConstruction) {
  const auto& model = calib::calibrated().model;
  // What the RangeTuner picks for this window against the paper array.
  const auto expected =
      tune_for_window(calib::make_paper_array(model),
                      PulseGenerator{model.pg_config()}, 0.95_V, 1.05_V);

  const analog::ConstantRail vdd{1.0_V};
  EngineSiteOptions options;
  options.code_policy.initial = DelayCode{0};  // window must override this
  options.code_policy.window = CodeWindow{0.95_V, 1.05_V};
  auto engine = GetParam().build({&vdd, nullptr}, options);
  EXPECT_EQ(engine->context().current_code(), expected.code);
  const auto m = measure_one(*engine, request_at(0.0));
  EXPECT_EQ(m.code, expected.code)
      << "measurements must carry the window-resolved code";
}

TEST_P(MeasureEngineConformance, BatchMatchesSingleMeasuresOnQuietRails) {
  const analog::ConstantRail vdd{1.0_V};
  auto batched = GetParam().build({&vdd, nullptr}, {});
  auto single = GetParam().build({&vdd, nullptr}, {});
  const Picoseconds interval{10000.0};

  std::vector<RawSample> batch;
  batched->measure_raw_batch(request_at(0.0), interval, 4, batch);
  ASSERT_EQ(batch.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<RawSample> one;
    single->measure_raw_batch(
        request_at(static_cast<double>(k) * interval.value()), interval, 1,
        one);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(batch[k].word, one.front().word) << "sample " << k;
    EXPECT_EQ(batch[k].code, one.front().code) << "sample " << k;
  }
}

// ±100 mV around 1 V over a 40-sample period: the rail leaves code 011's
// window on both sides, so an auto-range policy keeps walking.
analog::CallbackRail swinging_rail() {
  return analog::CallbackRail{[](Picoseconds t) {
    return Volt{1.0 + 0.1 * std::sin(2.0 * std::numbers::pi * t.value() /
                                     400000.0)};
  }};
}

TEST_P(MeasureEngineConformance, AutoRangedBatchEqualsExplicitCodeLoop) {
  // An auto-ranged capture without an explicit code runs the feedback in
  // the engine: one call of any count must walk exactly the trim sequence
  // of count-1 captures at the policy's code, each observed by hand.
  const analog::CallbackRail vdd = swinging_rail();
  EngineSiteOptions options;
  options.code_policy.auto_range = true;
  const Picoseconds interval{10000.0};
  for (const std::size_t count : {1u, 7u, 96u, 4096u}) {
    auto batched = GetParam().build({&vdd, nullptr}, options);
    auto looped = GetParam().build({&vdd, nullptr}, options);
    std::vector<RawSample> got;
    batched->measure_raw_batch(request_at(0.0), interval, count, got);
    std::vector<RawSample> want;
    for (std::size_t k = 0; k < count; ++k) {
      MeasureRequest req = request_at(static_cast<double>(k) * interval.value());
      req.code = looped->context().current_code();
      looped->measure_raw_batch(req, interval, 1, want);
      looped->context().observe(looped->encode(want.back().word),
                                want.back().word.width());
    }
    ASSERT_EQ(got.size(), count);
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_EQ(got[k].word, want[k].word) << count << ": sample " << k;
      EXPECT_EQ(got[k].code, want[k].code) << count << ": sample " << k;
      EXPECT_EQ(got[k].timestamp.value(), want[k].timestamp.value())
          << count << ": sample " << k;
    }
    EXPECT_EQ(batched->context().code_steps(), looped->context().code_steps())
        << "count " << count;
    EXPECT_EQ(batched->context().current_code(),
              looped->context().current_code())
        << "count " << count;
    if (count >= 96) {
      EXPECT_GT(looped->context().code_steps(), 0u)
          << "the rail must force range steps";
    }
  }
}

TEST_P(MeasureEngineConformance, ExplicitCodeCaptureLeavesThePolicyUntouched) {
  // 0.84 V sits at code 011's low edge: the same 16 captures step the
  // policy when it codes them, and leave it alone when they name a code.
  const analog::ConstantRail vdd{0.84_V};
  EngineSiteOptions options;
  options.code_policy.auto_range = true;
  auto engine = GetParam().build({&vdd, nullptr}, options);
  const DelayCode initial = engine->context().current_code();

  MeasureRequest req = request_at(0.0);
  req.code = initial;
  std::vector<RawSample> out;
  engine->measure_raw_batch(req, Picoseconds{10000.0}, 16, out);
  EXPECT_EQ(engine->context().code_steps(), 0u);
  EXPECT_EQ(engine->context().current_code(), initial);

  engine->measure_raw_batch(request_at(160000.0), Picoseconds{10000.0}, 16,
                            out);
  EXPECT_GT(engine->context().code_steps(), 0u)
      << "the same rail steps the policy without an explicit code";
}

// --- backend-specific contract points ----------------------------------

TEST(MeasureEngineCapabilities, BehavioralSupportsTrimAndVoting) {
  const auto& model = calib::calibrated().model;
  const analog::ConstantRail vdd{1.0_V};
  auto engine =
      make_behavioral_engine(calib::make_paper_engine(model), {&vdd, nullptr}, {});
  EXPECT_TRUE(engine->supports_voting());
  EXPECT_EQ(engine->take_batch_stats().sim_events, 0u)
      << "the behavioral model runs no event simulator";

  // Per-request code override (the drift-injection path).
  MeasureRequest req;
  req.code = DelayCode{5};
  const auto m = measure_one(*engine, req);
  EXPECT_EQ(m.code, DelayCode{5});
  EXPECT_EQ(engine->context().current_code(), DelayCode{3})
      << "a per-request override must not disturb the policy code";
}

TEST(MeasureEngineCapabilities, StructuralIsBatchSingleVoteWithLiveTrim) {
  const auto& model = calib::calibrated().model;
  const analog::ConstantRail vdd{1.0_V};
  auto engine = make_structural_engine(
      calib::make_paper_array(model), PulseGenerator{model.pg_config()},
      {&vdd, nullptr}, ThermometerConfig{}.control_period, {});
  EXPECT_FALSE(engine->supports_voting());

  std::vector<RawSample> batch;
  engine->measure_raw_batch(MeasureRequest{}, Picoseconds{10000.0}, 2, batch);
  const auto stats = engine->take_batch_stats();
  EXPECT_GT(stats.sim_events, 0u) << "the netlist really simulates";
  EXPECT_EQ(engine->take_batch_stats().sim_events, 0u)
      << "take_batch_stats drains the window";

  // Live trim: a per-request code reloads the MUX selects through the FSM
  // code register, without disturbing the policy code.
  MeasureRequest req;
  req.code = DelayCode{5};
  const auto m = measure_one(*engine, req);
  EXPECT_EQ(m.code, DelayCode{5});
  EXPECT_EQ(engine->context().current_code(), DelayCode{3});

  auto auto_engine = make_structural_engine(
      calib::make_paper_array(model), PulseGenerator{model.pg_config()},
      {&vdd, nullptr}, ThermometerConfig{}.control_period,
      EngineSiteOptions{{DelayCode{3}, std::nullopt, true}, false});
  EXPECT_TRUE(auto_engine->context().auto_ranging());
}

TEST(MeasureEngineCapabilities, BehavioralHandleMatchesNoiseThermometer) {
  // The handle is a thin adapter: words must be bit-identical to driving
  // the (facade) NoiseThermometer directly over the same rails.
  const auto& model = calib::calibrated().model;
  const analog::ConstantRail vdd{1.0_V};
  auto engine =
      make_behavioral_engine(calib::make_paper_engine(model), {&vdd, nullptr}, {});
  auto thermometer = calib::make_paper_thermometer(model);
  for (std::size_t k = 0; k < 3; ++k) {
    MeasureRequest req;
    req.start = Picoseconds{static_cast<double>(k) * 10000.0};
    const auto via_handle = measure_one(*engine, req);
    const auto direct = thermometer.measure_vdd(
        {&vdd, nullptr}, req.start, DelayCode{3});
    EXPECT_EQ(via_handle.word, direct.word) << "sample " << k;
    EXPECT_EQ(via_handle.timestamp.value(), direct.timestamp.value());
  }
}

TEST(MeasureEngineContext, ObserveDrivesAutoRangeAndCountsSteps) {
  EngineContext ctx;
  EXPECT_FALSE(ctx.auto_ranging());
  ctx.set_fixed_code(DelayCode{4});
  EXPECT_EQ(ctx.current_code(), DelayCode{4});
  EXPECT_EQ(ctx.code_steps(), 0u);
  // Fixed code: observe is the identity.
  EncodedWord overflow;
  overflow.count = 7;
  overflow.overflow = true;
  EXPECT_EQ(ctx.observe(overflow, 7), DelayCode{4});

  AutoRangeConfig ar;
  ar.initial = DelayCode{3};
  ctx.enable_auto_range(ar);
  ASSERT_TRUE(ctx.auto_ranging());
  EXPECT_EQ(ctx.current_code(), DelayCode{3});
  DelayCode code = ctx.current_code();
  for (int i = 0; i < 8 && ctx.code_steps() == 0; ++i) {
    code = ctx.observe(overflow, 7);
  }
  EXPECT_GT(ctx.code_steps(), 0u)
      << "persistent overflow must force a range step";
  EXPECT_EQ(ctx.current_code(), code);
}

TEST(MeasureEngineCapabilities, StructuralAutoRangeConvergesLikeBehavioral) {
  // The same closed loop — measure, encode, observe — over identical rails
  // must walk both backends through the same code sequence: the structural
  // engine now resolves its code per measure and retargets the PG tap
  // through the live MUX selects. Each capture names the policy's code, so
  // the engines leave the feedback to the explicit observe below.
  const auto& model = calib::calibrated().model;
  const analog::ConstantRail vdd{0.84_V};  // saturates the initial code
  EngineSiteOptions options;
  options.code_policy.auto_range = true;

  auto behavioral = make_behavioral_engine(calib::make_paper_engine(model),
                                           {&vdd, nullptr}, options);
  auto structural = make_structural_engine(
      calib::make_paper_array(model), PulseGenerator{model.pg_config()},
      {&vdd, nullptr}, ThermometerConfig{}.control_period, options);

  for (std::size_t k = 0; k < 12; ++k) {
    MeasureRequest req;
    req.start = Picoseconds{static_cast<double>(k) * 10000.0};
    req.code = behavioral->context().current_code();
    const auto mb = measure_one(*behavioral, req);
    behavioral->context().observe(behavioral->encode(mb.word),
                                  mb.word.width());
    req.code = structural->context().current_code();
    const auto ms = measure_one(*structural, req);
    structural->context().observe(structural->encode(ms.word),
                                  ms.word.width());
    EXPECT_EQ(ms.code, mb.code) << "trim sequences diverged at sample " << k;
    EXPECT_EQ(ms.word, mb.word) << "words diverged at sample " << k;
  }
  EXPECT_GT(structural->context().code_steps(), 0u)
      << "the rail must actually force a range step";
  EXPECT_EQ(structural->context().current_code(),
            behavioral->context().current_code());
}

}  // namespace
}  // namespace psnt::core
