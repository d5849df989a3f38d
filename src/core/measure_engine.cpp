#include "core/measure_engine.h"

#include <utility>

#include "core/full_system.h"
#include "core/range_tuner.h"
#include "sim/simulator.h"
#include "util/error.h"

namespace psnt::core {

// ---------------------------------------------------------------------------
// EngineContext
// ---------------------------------------------------------------------------

void EngineContext::set_fixed_code(DelayCode code) {
  code_ = code;
  auto_range_.reset();
}

void EngineContext::enable_auto_range(AutoRangeConfig config) {
  auto_range_.emplace(config);
  code_ = auto_range_->code();
}

DelayCode EngineContext::observe(const EncodedWord& reading,
                                 std::size_t word_width) {
  if (auto_range_) code_ = auto_range_->observe(reading, word_width);
  return code_;
}

std::uint64_t EngineContext::code_steps() const {
  return auto_range_ ? auto_range_->steps_taken() : 0;
}

// ---------------------------------------------------------------------------
// Site configuration shared by both backends
// ---------------------------------------------------------------------------

namespace {

// The one code-policy resolution: a window picks the starting code with
// tune_for_window against the site's own array/PG; auto_range then seeds an
// AutoRangeController with it, otherwise the code stays fixed.
void apply_code_policy(const CodePolicyConfig& policy, const SensorArray& array,
                       const PulseGenerator& pg, EngineContext& ctx) {
  DelayCode initial = policy.initial;
  if (policy.window) {
    initial = tune_for_window(array, pg, policy.window->lo, policy.window->hi)
                  .code;
  }
  if (policy.auto_range) {
    AutoRangeConfig ar = policy.auto_range_config;
    ar.initial = initial;
    ctx.enable_auto_range(ar);
  } else {
    ctx.set_fixed_code(initial);
  }
}

// With fault hooks on, routes `rails.vdd` through `slot`: the context's
// settable rail offset then applies to every read.
void install_offset_rail(bool fault_hooks, const EngineContext& ctx,
                         std::optional<ContextOffsetRail>& slot,
                         analog::RailPair& rails) {
  if (!fault_hooks) return;
  slot.emplace(rails.vdd, &ctx);
  rails.vdd = &*slot;
}

// The code `req` runs at: its per-request override or the context's policy.
DelayCode resolve_code(const MeasureRequest& req, const EngineContext& ctx) {
  return req.code ? *req.code : ctx.current_code();
}

}  // namespace

// ---------------------------------------------------------------------------
// BehavioralEngine
// ---------------------------------------------------------------------------

BehavioralEngine::BehavioralEngine(SensorArray high_sense,
                                   SensorArray low_sense, PulseGenerator pg,
                                   ThermometerConfig config)
    : high_sense_(std::move(high_sense)),
      low_sense_(std::move(low_sense)),
      pg_(std::move(pg)),
      config_(config),
      high_kernel_(high_sense_),
      low_kernel_(low_sense_) {
  PSNT_CHECK(config_.control_period.value() > 0.0,
             "control period must be positive");
  PSNT_CHECK(config_.v_nominal.value() > 0.0,
             "nominal supply must be positive");
}

void BehavioralEngine::configure_code_policy(const CodePolicyConfig& policy) {
  apply_code_policy(policy, high_sense_, pg_, ctx_);
}

Picoseconds BehavioralEngine::run_fsm_transaction(Picoseconds start,
                                                  DelayCode code) {
  // Reconfigure only when needed, exactly as the architecture does.
  const bool needs_config = fsm_.active_code() != code;

  FsmInputs in;
  in.enable = true;
  in.configure = needs_config;
  in.ext_code = code;

  Picoseconds t = start;
  // Leave RESET once after construction.
  if (fsm_.state() == FsmState::kReset) {
    fsm_.step(in);
    t += config_.control_period;
  }

  std::size_t guard = 0;
  for (;;) {
    const FsmOutputs out = fsm_.step(in);
    t += config_.control_period;
    if (out.capture_sense) return t;
    // After INIT the configure request has been consumed.
    if (fsm_.state() == FsmState::kPrepareLow) in.configure = false;
    PSNT_CHECK(++guard < 32, "FSM failed to reach the SENSE state");
  }
}

Picoseconds BehavioralEngine::prepare(Picoseconds start, DelayCode code) {
  Picoseconds edge;
  if (fsm_.fast_transaction(code)) {
    // Steady state (parked in IDLE, same code): the FSM jumped straight to
    // S_SNS. Accumulate the edge time with the same five sequential adds
    // the stepped walk performs, so timestamps stay bit-identical.
    edge = start;
    for (int cycle = 0; cycle < 5; ++cycle) edge += config_.control_period;
  } else {
    edge = run_fsm_transaction(start, code);
  }
  // Sense launch: the P edge leaves the PG p_delay after the S_SNS command.
  return edge + pg_.p_delay();
}

void BehavioralEngine::measure_raw_batch(const MeasureRequest& first,
                                         Picoseconds interval,
                                         std::size_t count,
                                         const analog::RailPair& rails,
                                         std::vector<RawSample>& out) {
  const DelayCode code = resolve_code(first, ctx_);
  const SenseTarget target = first.target;
  const Picoseconds skew = pg_.skew(code);
  const SensorArray& array =
      target == SenseTarget::kVdd ? high_sense_ : low_sense_;
  BatchedSenseKernel& kernel =
      target == SenseTarget::kVdd ? high_kernel_ : low_kernel_;

  batch_launch_.resize(count);
  batch_v_.resize(count);
  batch_words_.resize(count);
  batch_need_scalar_.assign(count, 0);

  // Capture sweep: the per-sample FSM walk and rail read, in sample order,
  // then the done cycle that parks the FSM in IDLE for the next sample.
  // Only the SENSE evaluation is deferred so it can run vectorized below.
  for (std::size_t k = 0; k < count; ++k) {
    const Picoseconds launch =
        prepare(Picoseconds{first.start.value() +
                            static_cast<double>(k) * interval.value()},
                code);
    batch_launch_[k] = launch;
    if (target == SenseTarget::kVdd) {
      batch_v_[k] = rails.effective(launch).value();
    } else {
      // LOW-SENSE inverter: nominal VDD against the noisy ground.
      PSNT_CHECK(rails.gnd != nullptr, "GND sense needs a ground rail");
      batch_v_[k] = (config_.v_nominal - rails.gnd->at(launch)).value();
    }
    fsm_.step(FsmInputs{});  // the done cycle
  }

  // SENSE over the whole batch on the compare ladder; a sample it flags
  // (guard band, saturation floor, NaN) — or every sample, when the array
  // is not vectorizable — is sensed by the reference array model.
  const bool vectored =
      kernel.measure_batch(array, batch_v_.data(), count, code, skew,
                           batch_words_.data(), batch_need_scalar_.data());
  for (std::size_t k = 0; k < count; ++k) {
    if (!vectored || batch_need_scalar_[k] != 0) {
      batch_words_[k] = array.measure(Volt{batch_v_[k]}, skew);
    }
  }

  // Word hook per sample, post-capture, in sample order.
  out.reserve(out.size() + count);
  for (std::size_t k = 0; k < count; ++k) {
    RawSample raw;
    raw.timestamp = batch_launch_[k];
    raw.target = target;
    raw.code = code;
    raw.word = batch_words_[k];
    ctx_.apply_word(raw.word);
    out.push_back(raw);
  }
}

RawSample BehavioralEngine::measure_raw(const MeasureRequest& req,
                                        const analog::RailPair& rails) {
  single_.clear();
  measure_raw_batch(req, Picoseconds{0.0}, 1, rails, single_);
  return single_.front();
}

Measurement BehavioralEngine::measure(const MeasureRequest& req,
                                      const analog::RailPair& rails) {
  const RawSample raw = measure_raw(req, rails);
  return assemble_measurement(raw, raw.target == SenseTarget::kVdd
                                       ? decode(raw.word, raw.code)
                                       : decode_gnd_word(raw.word, raw.code));
}

const DecodeLadder& BehavioralEngine::ladder(SenseTarget target) const {
  const bool vdd = target == SenseTarget::kVdd;
  std::optional<DecodeLadder>& slot = vdd ? high_ladder_ : low_ladder_;
  if (!slot) slot.emplace(vdd ? high_sense_ : low_sense_, pg_);
  return *slot;
}

VoltageBin BehavioralEngine::decode(const ThermoWord& word,
                                    DelayCode code) const {
  return ladder(SenseTarget::kVdd).decode(word, code);
}

VoltageBin BehavioralEngine::decode_gnd_word(const ThermoWord& word,
                                             DelayCode code) const {
  return ladder(SenseTarget::kGnd).decode_gnd(word, code, config_.v_nominal);
}

DynamicRange BehavioralEngine::vdd_range(DelayCode code) const {
  const auto& thr = ladder(SenseTarget::kVdd).thresholds(code);
  return DynamicRange{thr.front(), thr.back()};
}

DynamicRange BehavioralEngine::gnd_range(DelayCode code) const {
  const auto& thr = ladder(SenseTarget::kGnd).thresholds(code);
  // gnd = v_nominal - v_eff: the measurable bounce window flips.
  return DynamicRange{config_.v_nominal - thr.back(),
                      config_.v_nominal - thr.front()};
}

void BehavioralEngine::prewarm_sense_ladders(DelayCode code) {
  const Picoseconds skew = pg_.skew(code);
  high_kernel_.prewarm(code, skew);
  low_kernel_.prewarm(code, skew);
}

std::size_t BehavioralEngine::adopt_sense_ladders(const BehavioralEngine& src) {
  return high_kernel_.adopt_ladders(src.high_kernel_) +
         low_kernel_.adopt_ladders(src.low_kernel_);
}

// ---------------------------------------------------------------------------
// Type-erased handles
// ---------------------------------------------------------------------------

namespace {

class BehavioralEngineHandle final : public IMeasureEngine {
 public:
  BehavioralEngineHandle(BehavioralEngine engine, analog::RailPair rails,
                         const EngineSiteOptions& options)
      : engine_(std::move(engine)), rails_(rails) {
    engine_.configure_code_policy(options.code_policy);
    install_offset_rail(options.fault_hooks, engine_.context(), offset_vdd_,
                        rails_);
  }

  EngineContext& context() override { return engine_.context(); }
  [[nodiscard]] std::size_t word_bits() const override {
    return engine_.word_bits();
  }
  void measure_raw_batch(const MeasureRequest& first, Picoseconds interval,
                         std::size_t count,
                         std::vector<RawSample>& out) override {
    engine_.measure_raw_batch(first, interval, count, rails_, out);
  }
  [[nodiscard]] EncodedWord encode(const ThermoWord& word) const override {
    return engine_.encode(word);
  }

  // For the grid-level ladder-sharing free functions below, which need the
  // wrapped engine's kernels behind the type-erased interface.
  [[nodiscard]] BehavioralEngine& behavioral() { return engine_; }
  [[nodiscard]] const BehavioralEngine& behavioral() const { return engine_; }

 private:
  BehavioralEngine engine_;
  std::optional<ContextOffsetRail> offset_vdd_;
  analog::RailPair rails_;
};

// Gate-level backend: a private event simulator running the full Fig. 6
// netlist. One netlist transaction covers prepare+sense, so a batch maps
// onto one run_measures(count), amortizing FSM idle realignment across the
// whole batch. The PG MUX selects are the FSM's live code register, so
// auto-range works at gate level: each call resolves its code from the
// context policy and a change reloads the register through INIT.
// Thread-confined: build and capture on one thread.
class StructuralEngineHandle final : public IMeasureEngine {
 public:
  StructuralEngineHandle(const SensorArray& array, const PulseGenerator& pg,
                         analog::RailPair rails, Picoseconds control_period,
                         const EngineSiteOptions& options)
      : array_(array), pg_(pg) {
    apply_code_policy(options.code_policy, array_, pg_, ctx_);
    install_offset_rail(options.fault_hooks, ctx_, offset_vdd_, rails);
    // Long sample streams: drop per-edge debug logs (DFF history, inverter
    // transition traces) so steady-state measures allocate nothing.
    sim_.set_instrumentation(false);
    FullStructuralSystem::Config config;
    config.control_period = control_period;
    config.code = ctx_.current_code();
    system_ = std::make_unique<FullStructuralSystem>(sim_, "site", array_,
                                                     pg_, rails, config);
    // Stats marks start after construction so power-on settle is excluded.
    events_mark_ = sim_.scheduler().executed_events();
    allocs_mark_ = sim_.scheduler().allocation_count();
  }

  EngineContext& context() override { return ctx_; }
  [[nodiscard]] std::size_t word_bits() const override { return array_.bits(); }

  [[nodiscard]] bool supports_voting() const override { return false; }

  void measure_raw_batch(const MeasureRequest& first, Picoseconds interval,
                         std::size_t count,
                         std::vector<RawSample>& out) override {
    const DelayCode code = resolve_code(first, ctx_);
    system_->set_code(code);
    const auto words =
        system_->run_measures(count, /*configure_first=*/!configured_);
    configured_ = true;
    out.reserve(out.size() + count);
    for (std::size_t k = 0; k < count; ++k) {
      RawSample raw;
      raw.timestamp = Picoseconds{first.start.value() +
                                  static_cast<double>(k) * interval.value()};
      raw.target = SenseTarget::kVdd;
      raw.code = code;
      raw.word = words[k];
      ctx_.apply_word(raw.word);
      out.push_back(raw);
    }
  }

  [[nodiscard]] EncodedWord encode(const ThermoWord& word) const override {
    return encoder_.encode(word);
  }

  EngineBatchStats take_batch_stats() override {
    const sim::Scheduler& sched = sim_.scheduler();
    EngineBatchStats stats;
    stats.sim_events = sched.executed_events() - events_mark_;
    stats.sim_allocs = sched.allocation_count() - allocs_mark_;
    events_mark_ = sched.executed_events();
    allocs_mark_ = sched.allocation_count();
    return stats;
  }

 private:
  sim::Simulator sim_;
  SensorArray array_;
  PulseGenerator pg_;
  EngineContext ctx_;
  std::optional<ContextOffsetRail> offset_vdd_;
  std::unique_ptr<FullStructuralSystem> system_;
  Encoder encoder_;
  bool configured_ = false;
  std::uint64_t events_mark_ = 0;
  std::uint64_t allocs_mark_ = 0;
};

}  // namespace

EngineHandle make_behavioral_engine(BehavioralEngine engine,
                                    analog::RailPair rails,
                                    const EngineSiteOptions& options) {
  return std::make_unique<BehavioralEngineHandle>(std::move(engine), rails,
                                                  options);
}

bool prewarm_sense_ladders(IMeasureEngine& engine, DelayCode code) {
  auto* handle = dynamic_cast<BehavioralEngineHandle*>(&engine);
  if (handle == nullptr) return false;
  handle->behavioral().prewarm_sense_ladders(code);
  return true;
}

std::size_t share_sense_ladders(IMeasureEngine& dst,
                                const IMeasureEngine& src) {
  auto* dst_handle = dynamic_cast<BehavioralEngineHandle*>(&dst);
  const auto* src_handle = dynamic_cast<const BehavioralEngineHandle*>(&src);
  if (dst_handle == nullptr || src_handle == nullptr) return 0;
  return dst_handle->behavioral().adopt_sense_ladders(src_handle->behavioral());
}

EngineHandle make_structural_engine(const SensorArray& array,
                                    const PulseGenerator& pg,
                                    analog::RailPair rails,
                                    Picoseconds control_period,
                                    const EngineSiteOptions& options) {
  return std::make_unique<StructuralEngineHandle>(array, pg, rails,
                                                  control_period, options);
}

}  // namespace psnt::core
