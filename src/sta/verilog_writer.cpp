#include "sta/verilog_writer.h"

#include <ostream>
#include <set>

#include "util/error.h"

namespace psnt::sta {

namespace {

// Escaped identifier when the name carries characters plain Verilog
// identifiers cannot (dots); escaped identifiers end with a space.
std::string vname(const std::string& raw) {
  bool plain = !raw.empty() && (std::isalpha(raw[0]) || raw[0] == '_');
  for (char c : raw) {
    plain = plain && (std::isalnum(c) || c == '_');
  }
  if (plain) return raw;
  return "\\" + raw + " ";
}

const char* pin_name(std::size_t index, std::size_t total, bool is_mux) {
  if (is_mux && index == 2) return "S";
  switch (index) {
    case 0:
      return "A";
    case 1:
      return "B";
    case 2:
      return "C";
    default:
      break;
  }
  (void)total;
  return "D";
}

}  // namespace

void write_verilog(std::ostream& os, const ControlNetlist& netlist,
                   const VerilogOptions& options) {
  PSNT_CHECK(!netlist.gates.empty(), "netlist has no recorded gates");

  // Ports: launch-register Qs are module inputs (plus clk), capture Ds are
  // outputs of the combinational cloud; flops themselves are emitted too,
  // so the module is self-contained sequential logic.
  std::set<std::string> wires;
  for (const auto& g : netlist.gates) {
    wires.insert(g.output);
    for (const auto& in : g.inputs) wires.insert(in);
  }

  os << "// Generated by psnt (sta/verilog_writer): control netlist behind\n"
     << "// the 1.22 ns critical-path reproduction. Pair with the Liberty\n"
     << "// export from analog/liberty_writer.\n";
  os << "module " << options.module_name << " (clk);\n";
  os << "  input clk;\n\n";

  for (const auto& w : wires) {
    os << "  wire " << vname(w) << ";\n";
  }
  os << "\n";

  for (const auto& r : netlist.registers) {
    // Launch registers drive their Q wire; capture registers consume D.
    const std::string inst = "ff_" + r.name;
    if (!r.q.empty()) {
      os << "  DFF_X1 " << vname(inst) << " (.CP(clk), .D(1'b0), .Q("
         << vname(r.q) << "));\n";
    } else {
      os << "  DFF_X1 " << vname(inst) << " (.CP(clk), .D(" << vname(r.d)
         << "));\n";
    }
  }
  os << "\n";

  for (const auto& g : netlist.gates) {
    const bool is_mux = g.cell.rfind("MUX", 0) == 0;
    os << "  " << g.cell << " " << vname(g.name) << " (";
    for (std::size_t i = 0; i < g.inputs.size(); ++i) {
      os << "." << pin_name(i, g.inputs.size(), is_mux) << "("
         << vname(g.inputs[i]) << "), ";
    }
    os << ".Y(" << vname(g.output) << "));\n";
  }
  os << "endmodule\n";
}

}  // namespace psnt::sta
