#include "sim/dff.h"

namespace psnt::sim {

DFlipFlop::DFlipFlop(Simulator& sim, std::string name, Net& d, Net& cp, Net& q,
                     analog::FlipFlopTimingModel model)
    : Component(sim, std::move(name)),
      d_(d),
      q_(q),
      model_(std::move(model)),
      // "Long ago": a D input that never toggles has unbounded setup margin.
      d_last_change_(from_ps(-1e9)),
      last_edge_(from_ps(-1e9)),
      history_enabled_(sim.instrumentation_enabled()) {
  d.on_change([this](const Net&, Logic, Logic, SimTime at) { on_data(at); });
  cp.on_change([this](const Net&, Logic old_v, Logic new_v, SimTime at) {
    on_clock(old_v, new_v, at);
  });
}

void DFlipFlop::on_data(SimTime at) {
  d_last_change_ = at;
  // Hold check: D moved too soon after the most recent capture edge.
  if (has_edge_ &&
      at - last_edge_ < from_ps(model_.params().t_hold)) {
    ++hold_violations_;
    if (!history_.empty()) history_.back().hold_violation = true;
    q_.schedule_level(sim_.scheduler(),
                      from_ps(model_.params().t_clk_to_q), Logic::X);
  }
}

void DFlipFlop::on_clock(Logic old_value, Logic new_value, SimTime at) {
  if (!(old_value == Logic::L0 && new_value == Logic::L1)) return;  // rising only
  last_edge_ = at;
  has_edge_ = true;

  const Logic d_now = normalize(d_.value());
  if (!is_known(d_now)) {
    q_.schedule_level(sim_.scheduler(),
                      from_ps(model_.params().t_clk_to_q), Logic::X);
    if (history_enabled_) {
      EdgeRecord rec;
      rec.edge_time = to_ps(at);
      history_.push_back(rec);
    }
    return;
  }

  const bool new_bit = d_now == Logic::L1;
  const bool old_bit = q_.value() == Logic::L1;  // X/Z read as 0
  const auto outcome = model_.sample(to_ps(d_last_change_), to_ps(at),
                                     new_bit, old_bit);
  if (outcome.region == analog::SampleRegion::kViolated) ++setup_violations_;
  if (outcome.region == analog::SampleRegion::kMetastable) {
    ++metastable_samples_;
  }

  q_.schedule_level(sim_.scheduler(), from_ps(outcome.clk_to_q),
                    from_bool(outcome.captured_value));

  if (history_enabled_) {
    EdgeRecord rec;
    rec.edge_time = to_ps(at);
    rec.outcome = outcome;
    history_.push_back(rec);
  }
}

}  // namespace psnt::sim
