#include "analog/liberty_writer.h"

#include <ostream>

#include "util/error.h"

namespace psnt::analog {

namespace {

void write_axis(std::ostream& os, const char* key,
                const std::vector<double>& axis, const char* indent) {
  os << indent << key << "(\"";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i) os << ", ";
    os << axis[i];
  }
  os << "\");\n";
}

void write_table(std::ostream& os, const char* group_name,
                 const TimingTable& table, const char* indent) {
  os << indent << group_name << " (psnt_template_"
     << table.slew_axis().size() << "x" << table.load_axis().size()
     << ") {\n";
  std::string inner = std::string(indent) + "  ";
  write_axis(os, "index_1", table.slew_axis(), inner.c_str());
  write_axis(os, "index_2", table.load_axis(), inner.c_str());
  os << inner << "values( \\\n";
  for (std::size_t r = 0; r < table.slew_axis().size(); ++r) {
    os << inner << "  \"";
    for (std::size_t c = 0; c < table.load_axis().size(); ++c) {
      if (c) os << ", ";
      os << table
                .lookup(Picoseconds{table.slew_axis()[r]},
                        Picofarad{table.load_axis()[c]})
                .value();
    }
    os << "\"" << (r + 1 < table.slew_axis().size() ? ", \\" : " \\")
       << "\n";
  }
  os << inner << ");\n" << indent << "}\n";
}

void write_cell(std::ostream& os, const Cell& cell) {
  os << "  cell (" << cell.name << ") {\n";
  if (cell.is_sequential()) {
    os << "    ff (IQ, IQN) { clocked_on : \"CP\"; next_state : \"D\"; }\n";
    os << "    pin (D) {\n      direction : input;\n      capacitance : "
       << cell.input_cap.value() << ";\n";
    os << "      timing () {\n        related_pin : \"CP\";\n"
       << "        timing_type : setup_rising;\n"
       << "        rise_constraint (scalar) { values(\""
       << cell.seq->t_setup.value() << "\"); }\n      }\n";
    os << "      timing () {\n        related_pin : \"CP\";\n"
       << "        timing_type : hold_rising;\n"
       << "        rise_constraint (scalar) { values(\""
       << cell.seq->t_hold.value() << "\"); }\n      }\n    }\n";
    os << "    pin (CP) {\n      direction : input;\n      capacitance : "
       << cell.input_cap.value() << ";\n      clock : true;\n    }\n";
    os << "    pin (Q) {\n      direction : output;\n"
       << "      timing () {\n        related_pin : \"CP\";\n"
       << "        timing_type : rising_edge;\n";
    write_table(os, "cell_rise", cell.seq->clk_to_q, "        ");
    os << "      }\n    }\n";
    os << "  }\n";
    return;
  }

  // Input pins (deduplicated from the arcs).
  std::vector<std::string> inputs;
  for (const auto& arc : cell.arcs) {
    bool seen = false;
    for (const auto& name : inputs) seen |= name == arc.from_pin;
    if (!seen) inputs.push_back(arc.from_pin);
  }
  for (const auto& in : inputs) {
    os << "    pin (" << in << ") {\n      direction : input;\n"
       << "      capacitance : " << cell.input_cap.value() << ";\n    }\n";
  }
  os << "    pin (Y) {\n      direction : output;\n";
  for (const auto& arc : cell.arcs) {
    os << "      timing () {\n        related_pin : \"" << arc.from_pin
       << "\";\n        timing_sense : "
       << (arc.inverting ? "negative_unate" : "positive_unate") << ";\n";
    write_table(os, "cell_rise", arc.delay, "        ");
    write_table(os, "rise_transition", arc.output_slew, "        ");
    os << "      }\n";
  }
  os << "    }\n  }\n";
}

}  // namespace

void write_liberty(std::ostream& os, const CellLibrary& lib,
                   const LibertyOptions& options) {
  PSNT_CHECK(lib.size() > 0, "empty cell library");
  os << "library (" << options.library_name << ") {\n";
  os << "  delay_model : table_lookup;\n";
  os << "  time_unit : \"1ps\";\n";
  os << "  capacitive_load_unit (1, pf);\n";
  os << "  voltage_unit : \"1V\";\n";
  os << "  nom_voltage : " << options.voltage << ";\n";
  os << "  nom_temperature : " << options.temperature << ";\n";
  os << "  nom_process : 1;\n\n";
  for (const auto& name : lib.cell_names()) {
    write_cell(os, lib.at(name));
  }
  os << "}\n";
}

}  // namespace psnt::analog
