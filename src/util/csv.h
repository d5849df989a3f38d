// CSV table emission used by the paper report and the grid telemetry.
//
// Every paper_report section prints its rows through a CsvTable so the series
// can be diffed against the golden file and re-plotted.
#pragma once

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace psnt::util {

class CsvTable {
 public:
  explicit CsvTable(std::vector<std::string> header);

  // Starts a new row; subsequent add() calls append cells to it.
  CsvTable& new_row();

  CsvTable& add(std::string cell);
  CsvTable& add(double value, int precision = 6);
  CsvTable& add(long long value);
  CsvTable& add(int value) { return add(static_cast<long long>(value)); }
  CsvTable& add(std::size_t value) {
    return add(static_cast<long long>(value));
  }

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const { return header_.size(); }
  [[nodiscard]] const std::vector<std::string>& header() const {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

  // Writes RFC-4180-ish CSV (cells containing comma/quote/newline get quoted).
  void write_csv(std::ostream& os) const;

  // Writes an aligned fixed-width table for human-readable bench logs.
  void write_pretty(std::ostream& os) const;

 private:
  static std::string escape(const std::string& cell);

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace psnt::util
