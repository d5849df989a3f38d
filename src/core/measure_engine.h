// MeasureEngine: the single measurement contract behind every sensing path.
//
// The paper's system (Fig. 6) is one pipeline — PG skew, PREPARE/SENSE, FF
// array sample, then one ENC — and this layer makes the codebase mirror
// that. Every backend (the behavioral NoiseThermometer model and the
// gate-level structural netlist) implements one capture call,
//
//     measure_raw_batch(first, interval, count) -> RawSamples
//
// (a count of 1 is just a batch), and the word hook runs post-capture inside
// it. ENC and voltage conversion are not engine work: consumers run them
// downstream on one shared DecodeLadder — the scan grid in its drain pass,
// one ladder read per sample.
//
// One engine contract, `IMeasureEngine` / `EngineHandle`: a thin type-erased
// handle for the grid, where behavioral and gate-level sites coexist at
// runtime. Site fidelity and fault-hook installation are *construction
// parameters* of the handle factories, never branches in the consumer.
//
// Hook surface (the ONLY one in the codebase)
//   `EngineContext` carries exactly three cross-cutting concerns:
//     - word hook: runs on the raw sensed word after capture, before decode —
//       where a stuck DS node or metastable FF corrupts the physical path;
//     - rail offset: a settable supply offset read by ContextOffsetRail, the
//       droop-spike injection point (offset 0.0 is bit-identical: x + 0.0);
//     - delay-code policy: fixed code, RangeTuner window resolution (once, at
//       engine construction), or an AutoRangeController. Like the paper's
//       CNTR, which sets the Delay Code "internally according to a policy"
//       (Sec. III-B), an auto-ranged engine runs the feedback itself: a
//       capture without an explicit `MeasureRequest::code` encodes and
//       `observe()`s each word before the next PREPARE. A capture with an
//       explicit code overrides the policy for that call and leaves it
//       untouched; such callers (the grid's resilient loop) feed the words
//       they publish back through `observe()` themselves.
//   fault::FaultSession is the one binding between a FaultInjector and this
//   context; nothing else installs hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "analog/rail.h"
#include "core/auto_range.h"
#include "core/control_fsm.h"
#include "core/encoder.h"
#include "core/measurement.h"
#include "core/pulse_gen.h"
#include "core/sense_kernel.h"
#include "core/sensor_array.h"
#include "core/streaming_encoder.h"

namespace psnt::core {

struct ThermometerConfig {
  // Control/system clock of the CUT the sensor runs at. The paper's control
  // critical path is 1.22 ns, so 800 MHz (1250 ps) is a comfortable choice.
  Picoseconds control_period{1250.0};
};

// Target window for RangeTuner-based code selection (Sec. III-A).
struct CodeWindow {
  Volt lo;
  Volt hi;
};

// How an engine picks its Delay Code. Resolved exactly once, at engine
// construction: a `window` runs core::tune_for_window against the engine's
// own array/PG to pick the starting code; `auto_range` then hands that code
// to an AutoRangeController (default patience) that re-trims as words are
// observed.
struct CodePolicyConfig {
  DelayCode initial{3};
  std::optional<CodeWindow> window;
  bool auto_range = false;
};

class EngineContext {
 public:
  using WordHook = std::function<void(ThermoWord&)>;

  // --- word hook --------------------------------------------------------
  void set_word_hook(WordHook hook) { word_hook_ = std::move(hook); }
  void clear_word_hook() { word_hook_ = nullptr; }
  [[nodiscard]] bool has_word_hook() const {
    return static_cast<bool>(word_hook_);
  }
  void apply_word(ThermoWord& word) const {
    if (word_hook_) word_hook_(word);
  }

  // --- rail hook --------------------------------------------------------
  void set_rail_offset(double volts) { rail_offset_volts_ = volts; }
  [[nodiscard]] double rail_offset() const { return rail_offset_volts_; }

  // --- delay-code policy ------------------------------------------------
  void set_fixed_code(DelayCode code);
  void enable_auto_range(AutoRangeConfig config);
  [[nodiscard]] bool auto_ranging() const { return auto_range_.has_value(); }
  [[nodiscard]] DelayCode current_code() const { return code_; }
  // Feeds one published reading back into the policy; returns the code the
  // NEXT measure will use. No-op (returns current_code) under a fixed code.
  DelayCode observe(const EncodedWord& reading, std::size_t word_width);
  [[nodiscard]] std::uint64_t code_steps() const;

 private:
  WordHook word_hook_;
  double rail_offset_volts_ = 0.0;
  DelayCode code_{3};
  std::optional<AutoRangeController> auto_range_;
};

// Rail view that adds the context's settable offset to a wrapped source —
// the droop-spike hook point. Installed only when fault hooks are requested
// at engine construction, so the hook-free path never pays the indirection;
// with the offset at 0.0 the reads are bit-identical (x + 0.0 == x).
class ContextOffsetRail final : public analog::RailSource {
 public:
  ContextOffsetRail(const analog::RailSource* inner, const EngineContext* ctx)
      : inner_(inner), ctx_(ctx) {}

  [[nodiscard]] Volt at(Picoseconds t) const override {
    return Volt{inner_->at(t).value() + ctx_->rail_offset()};
  }

 private:
  const analog::RailSource* inner_;
  const EngineContext* ctx_;
};

// One measure transaction. `code` overrides the context's code policy for
// this transaction only (drifted-code injection, explicit-code callers): the
// capture runs at it and does not feed the auto-range policy.
struct MeasureRequest {
  Picoseconds start{0.0};
  SenseTarget target = SenseTarget::kVdd;
  std::optional<DelayCode> code;
};

// Behavioral backend: the paper's sensor as closed-form models (alpha-power
// inverter delays, FF timing checks) stepped by the control FSM. One capture
// routine, measure_raw_batch: its SENSE runs through the BatchedSenseKernel
// compare ladder, and a sample the ladder flags — or every sample of an
// array the kernel cannot vectorize — is sensed by SensorArray::measure, the
// reference. measure_raw and measure are count-1 calls to it.
class BehavioralEngine {
 public:
  BehavioralEngine(SensorArray high_sense, SensorArray low_sense,
                   PulseGenerator pg, ThermometerConfig config);

  [[nodiscard]] EngineContext& context() { return ctx_; }
  [[nodiscard]] const EngineContext& context() const { return ctx_; }
  [[nodiscard]] const SensorArray& high_sense() const { return high_sense_; }
  [[nodiscard]] const SensorArray& low_sense() const { return low_sense_; }
  [[nodiscard]] const PulseGenerator& pulse_generator() const { return pg_; }
  [[nodiscard]] const ThermometerConfig& config() const { return config_; }
  [[nodiscard]] const ControlFsm& fsm() const { return fsm_; }
  [[nodiscard]] std::size_t word_bits() const { return high_sense_.bits(); }

  // Resolves the code policy once (window search, auto-range seeding) and
  // stores the result in the context. See CodePolicyConfig.
  void configure_code_policy(const CodePolicyConfig& policy);

  // --- capture (the SoA hot path, DESIGN.md §14) -------------------------
  // `count` consecutive PREPARE+SENSE transactions starting at first.start
  // spaced by `interval`, appended to `out`. The FSM walk, launch instants
  // and rail reads run per sample in sample order; the SENSE then runs over
  // the whole batch through BatchedSenseKernel::measure_batch, with flagged
  // samples sensed by SensorArray::measure; the word hook applies per
  // sample, in sample order, post-capture. Assumes rails are pure functions
  // of time across the batch — true for every RailSource — and that the
  // hook does not read rail state mid-batch (the one hook installer,
  // fault::FaultSession, arms one sample at a time: the grid's resilient
  // loop captures with count 1).
  //
  // An auto-ranged context with no `first.code` runs measure_auto_ranged
  // instead: each sample at the policy's current code, its hooked word
  // encoded and observed before the next PREPARE.
  void measure_raw_batch(const MeasureRequest& first, Picoseconds interval,
                         std::size_t count, const analog::RailPair& rails,
                         std::vector<RawSample>& out);

  // A count-1 measure_raw_batch: the Fig. 6 capture half. ENC and voltage
  // conversion are left to the downstream consumer (a DecodeLadder read).
  // site_id/sample_index are left zero for the caller to fill.
  RawSample measure_raw(const MeasureRequest& req,
                        const analog::RailPair& rails);

  // measure_raw plus decode (decode_gnd_word for a kGnd target), the full
  // transaction.
  Measurement measure(const MeasureRequest& req, const analog::RailPair& rails);

  // Scan-grid amortization hooks. The firing-ladder solve is lazy on the
  // first batch per code (~7 bisections); a grid of identical site arrays
  // would pay it once per site. prewarm forces the solve for `code` on the
  // HIGH-SENSE kernel now (a grid senses only VDD; a LOW-SENSE capture still
  // solves lazily); adopt copies every ladder `src` has already solved when
  // the arrays are value-identical (returns the ladder count, 0 on mismatch).
  void prewarm_sense_ladders(DelayCode code);
  std::size_t adopt_sense_ladders(const BehavioralEngine& src);

  // Decodes a word against the HIGH-SENSE ladder for `code`.
  [[nodiscard]] VoltageBin decode(const ThermoWord& word, DelayCode code) const;
  // LOW-SENSE (GND-bounce) decode: kNominalSupply minus the LOW ladder window.
  [[nodiscard]] VoltageBin decode_gnd_word(const ThermoWord& word,
                                           DelayCode code) const;
  [[nodiscard]] EncodedWord encode(const ThermoWord& word) const {
    return encoder_.encode(word);
  }

  // Dynamic range of the HIGH-SENSE array at a code (Fig. 5's x-extent).
  [[nodiscard]] DynamicRange vdd_range(DelayCode code) const;

 private:
  // Steps the FSM from IDLE through one transaction; returns the absolute
  // time of the S_SNS edge.
  Picoseconds run_fsm_transaction(Picoseconds start, DelayCode code);
  // PREPARE: walks the FSM to S_SNS for a transaction leaving IDLE at
  // `start`; returns the sense launch instant (S_SNS edge + PG p_delay).
  Picoseconds prepare(Picoseconds start, DelayCode code);
  // The auto-ranged capture loop: per sample, PREPARE at the context code,
  // SENSE through a one-sample BatchedSenseKernel::measure_batch on stack
  // locals (SensorArray::measure for a flagged sample), word hook, then ENC
  // and observe. Bit-identical to count-1 explicit-code captures each
  // followed by an observe of the captured word; a loop of such
  // measure_raw_batch calls is the simpler form, but it measured ~20 %
  // fewer grid_autorange samples/s (DESIGN.md, "Grid wiring").
  void measure_auto_ranged(const MeasureRequest& first, Picoseconds interval,
                           std::size_t count, const analog::RailPair& rails,
                           std::vector<RawSample>& out);
  // The decode ladder of one array, built on first use: a grid captures
  // through this engine but decodes in its drain, so it never pays for one.
  [[nodiscard]] const DecodeLadder& ladder(SenseTarget target) const;

  SensorArray high_sense_;
  SensorArray low_sense_;
  PulseGenerator pg_;
  ThermometerConfig config_;
  ControlFsm fsm_;
  Encoder encoder_;
  EngineContext ctx_;
  BatchedSenseKernel high_kernel_;
  BatchedSenseKernel low_kernel_;
  // Value-only caches (safe under the by-value moves this type undergoes);
  // mutable because decode and range queries are const.
  mutable std::optional<DecodeLadder> high_ladder_;
  mutable std::optional<DecodeLadder> low_ladder_;
  // SoA capture scratch, reused across batches so steady-state batch
  // measures allocate nothing.
  std::vector<double> batch_v_;
  std::vector<Picoseconds> batch_launch_;
  std::vector<ThermoWord> batch_words_;
  std::vector<std::uint8_t> batch_need_scalar_;
  std::vector<RawSample> single_;  // measure_raw's count-1 batch
};

// Per-batch simulation cost of a gate-level engine (zeros for models that
// do not run an event simulator).
struct EngineBatchStats {
  std::uint64_t sim_events = 0;
  std::uint64_t sim_allocs = 0;
};

// Type-erased engine handle for runtime-heterogeneous consumers (the scan
// grid). Rails are bound at construction; requests carry only the schedule.
class IMeasureEngine {
 public:
  virtual ~IMeasureEngine() = default;

  virtual EngineContext& context() = 0;
  [[nodiscard]] virtual std::size_t word_bits() const = 0;

  // The one capture call: `count` consecutive PREPARE+SENSE transactions
  // against the bound rails, starting at `first.start` and spaced by
  // `interval`, appended to `out` as capture-only RawSamples (word, code,
  // launch instant; no ENC, no bin). The word hook has already run.
  // `first.code` overrides the context's code policy for the whole call and
  // feeds it nothing. Without it, an auto-ranging context observes every
  // captured (hooked) word before the next sample's PREPARE, so one call of
  // any count walks the same trim sequence as `count` count-1 calls.
  virtual void measure_raw_batch(const MeasureRequest& first,
                                 Picoseconds interval, std::size_t count,
                                 std::vector<RawSample>& out) = 0;

  // The ENC the context's auto-range policy observes a word through
  // (EngineContext::observe): in-engine for policy-coded captures, by the
  // caller for the explicit-code captures it publishes.
  [[nodiscard]] virtual EncodedWord encode(const ThermoWord& word) const = 0;

  // Majority voting re-measures the same sample; false when the backend
  // cannot replay a sample independently of its live state.
  [[nodiscard]] virtual bool supports_voting() const { return true; }

  // Simulation cost since the previous call (or construction). Zeros for
  // non-simulating backends.
  virtual EngineBatchStats take_batch_stats() { return {}; }
};

using EngineHandle = std::unique_ptr<IMeasureEngine>;

// Construction-time site parameters shared by every handle factory: the code
// policy and whether the fault hook surface (context word hook + rail-offset
// view around vdd) is wired in. With `fault_hooks` false the engine reads
// the raw rails and pays no indirection.
struct EngineSiteOptions {
  CodePolicyConfig code_policy;
  bool fault_hooks = false;
};

// Behavioral handle: wraps a BehavioralEngine bound to `rails`.
[[nodiscard]] EngineHandle make_behavioral_engine(BehavioralEngine engine,
                                                  analog::RailPair rails,
                                                  const EngineSiteOptions& options);

// Cross-site ladder sharing over the type-erased handles (the scan grid's
// view of its engines). prewarm_sense_ladders forces the one-time firing-
// ladder solve for `code` on a behavioral handle; share_sense_ladders adopts
// every ladder `src` has solved into `dst` when both are behavioral handles
// over value-identical arrays. Both are no-ops returning false/0 for any
// other engine kind, so grid call sites need no fidelity branch.
bool prewarm_sense_ladders(IMeasureEngine& engine, DelayCode code);
std::size_t share_sense_ladders(IMeasureEngine& dst, const IMeasureEngine& src);

// Gate-level handle: builds a private event-driven sim::Simulator +
// FullStructuralSystem netlist around copies of `array`/`pg`. The PG MUX
// selects are the FSM's live code register, so the code policy runs
// structurally: window tuning picks the starting code, per-measure
// resolution follows the context (auto_range included — an auto-ranged
// batch runs one netlist transaction per sample, and a code change reloads
// the register through INIT).
// Build on the thread that will capture through it: the netlist is
// thread-confined.
[[nodiscard]] EngineHandle make_structural_engine(
    const SensorArray& array, const PulseGenerator& pg, analog::RailPair rails,
    Picoseconds control_period, const EngineSiteOptions& options);

}  // namespace psnt::core
