#include "analog/liberty_writer.h"

#include <gtest/gtest.h>

#include <sstream>

namespace psnt::analog {
namespace {

std::string lib_text(const LibertyOptions& options = {}) {
  std::ostringstream os;
  write_liberty(os, default_90nm_library(), options);
  return os.str();
}

TEST(Liberty, HeaderDeclaresUnitsAndConditions) {
  const std::string lib = lib_text();
  EXPECT_NE(lib.find("library (psnt90_tt_1p00v_25c)"), std::string::npos);
  EXPECT_NE(lib.find("delay_model : table_lookup;"), std::string::npos);
  EXPECT_NE(lib.find("time_unit : \"1ps\";"), std::string::npos);
  EXPECT_NE(lib.find("capacitive_load_unit (1, pf);"), std::string::npos);
  EXPECT_NE(lib.find("nom_voltage : 1"), std::string::npos);
}

TEST(Liberty, EveryCellEmitted) {
  const std::string lib = lib_text();
  for (const auto& name : default_90nm_library().cell_names()) {
    EXPECT_NE(lib.find("cell (" + name + ")"), std::string::npos) << name;
  }
}

TEST(Liberty, CombinationalArcsCarryUnatenessAndTables) {
  const std::string lib = lib_text();
  EXPECT_NE(lib.find("timing_sense : negative_unate"), std::string::npos);
  EXPECT_NE(lib.find("timing_sense : positive_unate"), std::string::npos);
  EXPECT_NE(lib.find("cell_rise ("), std::string::npos);
  EXPECT_NE(lib.find("rise_transition ("), std::string::npos);
  EXPECT_NE(lib.find("index_1(\""), std::string::npos);
  EXPECT_NE(lib.find("index_2(\""), std::string::npos);
}

TEST(Liberty, SequentialCellCarriesConstraints) {
  const std::string lib = lib_text();
  EXPECT_NE(lib.find("ff (IQ, IQN)"), std::string::npos);
  EXPECT_NE(lib.find("timing_type : setup_rising"), std::string::npos);
  EXPECT_NE(lib.find("timing_type : hold_rising"), std::string::npos);
  EXPECT_NE(lib.find("timing_type : rising_edge"), std::string::npos);
  // The DFF setup value (55 ps) appears in its constraint table.
  EXPECT_NE(lib.find("values(\"55\")"), std::string::npos);
}

TEST(Liberty, TableValuesMatchLookups) {
  // Spot-check: the INV_X1 delay at its first grid point appears verbatim.
  const auto& lib = default_90nm_library();
  const Cell& inv = lib.at("INV_X1");
  const auto& table = inv.arcs[0].delay;
  const double v00 = table
                         .lookup(Picoseconds{table.slew_axis()[0]},
                                 Picofarad{table.load_axis()[0]})
                         .value();
  std::ostringstream expect;
  expect << v00;
  EXPECT_NE(lib_text().find(expect.str()), std::string::npos);
}

TEST(Liberty, BalancedBraces) {
  const std::string lib = lib_text();
  long depth = 0;
  for (char c : lib) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Liberty, CustomOptions) {
  LibertyOptions options;
  options.library_name = "custom_lib";
  options.voltage = 0.9;
  options.temperature = 125.0;
  const std::string lib = lib_text(options);
  EXPECT_NE(lib.find("library (custom_lib)"), std::string::npos);
  EXPECT_NE(lib.find("nom_voltage : 0.9"), std::string::npos);
  EXPECT_NE(lib.find("nom_temperature : 125"), std::string::npos);
}

TEST(Liberty, RejectsEmptyLibrary) {
  CellLibrary empty;
  std::ostringstream os;
  EXPECT_THROW(write_liberty(os, empty), std::logic_error);
}

}  // namespace
}  // namespace psnt::analog
