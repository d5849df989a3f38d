// Flat-rail factory for grid tests: every site sees the same constant
// supply `v`.
#pragma once

#include <memory>

#include "grid/scan_grid.h"

namespace psnt::grid {

inline RailFactory constant_rails(Volt v) {
  return [v](const scan::SensorSite&, stats::Xoshiro256&) {
    return std::make_unique<analog::ConstantRail>(v);
  };
}

}  // namespace psnt::grid
