#include "sta/verilog_writer.h"

#include <gtest/gtest.h>

#include <sstream>

#include "sta/control_netlist.h"

namespace psnt::sta {
namespace {

std::string verilog_text(const ControlNetlist& netlist,
                         const VerilogOptions& options = {}) {
  std::ostringstream os;
  write_verilog(os, netlist, options);
  return os.str();
}

std::string control_verilog() {
  const auto netlist =
      build_control_netlist(analog::default_90nm_library());
  return verilog_text(netlist);
}

TEST(VerilogWriter, ModuleHeaderAndClockPort) {
  const std::string v = control_verilog();
  EXPECT_NE(v.find("module psnt_cntr (clk);"), std::string::npos);
  EXPECT_NE(v.find("input clk;"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(VerilogWriter, EveryGateInstanceEmitted) {
  const auto netlist = build_control_netlist(analog::default_90nm_library());
  const std::string v = verilog_text(netlist);
  for (const auto& g : netlist.gates) {
    EXPECT_NE(v.find(g.cell), std::string::npos) << g.cell;
    EXPECT_NE(v.find("\\" + g.name + " "), std::string::npos) << g.name;
  }
  // Instance count matches the builder's bookkeeping.
  std::size_t instances = 0;
  std::size_t pos = 0;
  while ((pos = v.find("  XOR2_X1 ", pos)) != std::string::npos) {
    ++instances;
    pos += 1;
  }
  std::size_t expected_xor = 0;
  for (const auto& g : netlist.gates) {
    if (g.cell == "XOR2_X1") ++expected_xor;
  }
  EXPECT_EQ(instances, expected_xor);
}

TEST(VerilogWriter, RegistersEmittedWithClock) {
  const auto netlist = build_control_netlist(analog::default_90nm_library());
  const std::string v = verilog_text(netlist);
  std::size_t dffs = 0;
  std::size_t pos = 0;
  while ((pos = v.find("  DFF_X1 ", pos)) != std::string::npos) {
    ++dffs;
    pos += 1;
  }
  EXPECT_EQ(dffs, netlist.register_count);
  EXPECT_NE(v.find(".CP(clk)"), std::string::npos);
}

TEST(VerilogWriter, DottedNamesAreEscaped) {
  const std::string v = control_verilog();
  // Dotted hierarchical names must appear as escaped identifiers.
  EXPECT_NE(v.find("\\enc.fa1.sum "), std::string::npos);
  EXPECT_NE(v.find("\\cmp.gt "), std::string::npos);
  // No unescaped dotted identifier fragments like "(enc.fa1".
  EXPECT_EQ(v.find("(enc.fa1"), std::string::npos);
}

TEST(VerilogWriter, MuxSelectUsesSPin) {
  const std::string v = control_verilog();
  const auto mux_pos = v.find("MUX2_X1");
  ASSERT_NE(mux_pos, std::string::npos);
  const auto line_end = v.find('\n', mux_pos);
  const std::string line = v.substr(mux_pos, line_end - mux_pos);
  EXPECT_NE(line.find(".S("), std::string::npos) << line;
}

TEST(VerilogWriter, CustomModuleName) {
  const auto netlist = build_control_netlist(analog::default_90nm_library());
  VerilogOptions options;
  options.module_name = "my_cntr";
  EXPECT_NE(verilog_text(netlist, options).find("module my_cntr"),
            std::string::npos);
}

TEST(VerilogWriter, RejectsEmptyNetlist) {
  ControlNetlist empty;
  std::ostringstream os;
  EXPECT_THROW(write_verilog(os, empty), std::logic_error);
}

TEST(VerilogWriter, BalancedParens) {
  const std::string v = control_verilog();
  long depth = 0;
  for (char c : v) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace psnt::sta
