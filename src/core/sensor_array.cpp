#include "core/sensor_array.h"

#include <algorithm>

#include "util/error.h"

namespace psnt::core {

SensorArray::SensorArray(std::vector<SensorCell> cells)
    : cells_(std::move(cells)) {
  PSNT_CHECK(!cells_.empty(), "sensor array needs at least one cell");
  PSNT_CHECK(cells_.size() <= ThermoWord::kMaxBits,
             "sensor array wider than the thermometer word");
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    PSNT_CHECK(cells_[i].c_load() > cells_[i - 1].c_load(),
               "cell loads must be strictly ascending");
  }
}

SensorArray SensorArray::with_loads(
    const analog::AlphaPowerDelayModel& inverter,
    const analog::FlipFlopTimingModel& flipflop,
    const std::vector<Picofarad>& loads) {
  std::vector<SensorCell> cells;
  cells.reserve(loads.size());
  for (const Picofarad c : loads) cells.emplace_back(inverter, flipflop, c);
  return SensorArray{std::move(cells)};
}

ThermoWord SensorArray::measure(Volt v_eff, Picoseconds skew) const {
  ThermoWord word{0, cells_.size()};
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    word.set_bit(i, cells_[i].sense(v_eff, skew).correct);
  }
  return word;
}

std::vector<Volt> SensorArray::thresholds(Picoseconds skew, Volt v_max) const {
  std::vector<Volt> out;
  out.reserve(cells_.size());
  const Volt v_floor =
      cells_.front().inverter().params().v_threshold + Volt{1e-6};
  for (const auto& cell : cells_) {
    const auto thr = cell.threshold(skew, v_max);
    if (thr) {
      out.push_back(*thr);
      continue;
    }
    // Clamp: a cell that never fails in-window reports the floor; one that
    // never passes reports v_max.
    const bool passes_at_vmax =
        cell.margin(v_max, skew).value() > 0.0;
    out.push_back(passes_at_vmax ? v_floor : v_max);
  }
  return out;
}

std::vector<Volt> SensorArray::sorted_thresholds(Picoseconds skew,
                                                 Volt v_max) const {
  auto out = thresholds(skew, v_max);
  std::sort(out.begin(), out.end());
  return out;
}

DynamicRange SensorArray::dynamic_range(Picoseconds skew) const {
  const auto thr = sorted_thresholds(skew);
  return DynamicRange{thr.front(), thr.back()};
}

VoltageBin SensorArray::decode(const ThermoWord& word,
                               Picoseconds skew) const {
  PSNT_CHECK(word.width() == cells_.size(),
             "word width does not match the array");
  const std::size_t k = word.bubble_corrected().count_ones();
  const auto thr = sorted_thresholds(skew);
  VoltageBin bin;
  if (k > 0) bin.lo = thr[k - 1];
  if (k < thr.size()) bin.hi = thr[k];
  return bin;
}

VoltageBin SensorArray::decode_gnd(const ThermoWord& word, Picoseconds skew,
                                   Volt v_nominal) const {
  const VoltageBin vdd_bin = decode(word, skew);
  // gnd = v_nominal - v_eff, so the interval flips: a high effective supply
  // (many ones) means a *low* ground bounce.
  VoltageBin gnd;
  if (vdd_bin.hi) gnd.lo = v_nominal - *vdd_bin.hi;
  if (vdd_bin.lo) gnd.hi = v_nominal - *vdd_bin.lo;
  return gnd;
}

}  // namespace psnt::core
