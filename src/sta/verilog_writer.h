// Structural Verilog export of the control netlist.
//
// Together with the Liberty export (analog/liberty_writer) this forms a
// complete handoff kit: the reconstructed CNTR/ENC/counter netlist behind
// the 1.22 ns claim can be re-timed by any external STA. Net names containing
// dots are escaped Verilog identifiers.
#pragma once

#include <iosfwd>
#include <string>

#include "sta/control_netlist.h"

namespace psnt::sta {

struct VerilogOptions {
  std::string module_name = "psnt_cntr";
};

// Writes one module: launch-register Q pins become inputs (they belong to
// the flop instances emitted alongside), capture-register D pins become
// outputs, every recorded gate becomes an instance.
void write_verilog(std::ostream& os, const ControlNetlist& netlist,
                   const VerilogOptions& options = {});

}  // namespace psnt::sta
