// Liberty (.lib) export of the NLDM cell library.
//
// Emits the characterisation data in the industry's interchange format so
// the timing numbers behind the 1.22 ns reproduction can be inspected (or
// consumed by an external STA) directly. Scope: cell/pin/timing groups with
// lu_table templates; enough for a sign-off reader to cross-check, not a
// full Liberty feature set.
#pragma once

#include <iosfwd>
#include <string>

#include "analog/cell_library.h"

namespace psnt::analog {

struct LibertyOptions {
  std::string library_name = "psnt90_tt_1p00v_25c";
  double voltage = 1.0;
  double temperature = 25.0;
};

// Writes the whole library. Tables are emitted with their native axes
// (input_net_transition × total_output_net_capacitance, ps / pF).
void write_liberty(std::ostream& os, const CellLibrary& lib,
                   const LibertyOptions& options = {});

}  // namespace psnt::analog
