#include "util/csv.h"

#include <algorithm>
#include <iomanip>

#include "util/error.h"

namespace psnt::util {

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  PSNT_CHECK(!header_.empty(), "CSV table needs at least one column");
}

CsvTable& CsvTable::new_row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

CsvTable& CsvTable::add(std::string cell) {
  PSNT_CHECK(!rows_.empty(), "call new_row() before add()");
  PSNT_CHECK(rows_.back().size() < header_.size(),
             "row has more cells than header columns");
  rows_.back().push_back(std::move(cell));
  return *this;
}

CsvTable& CsvTable::add(double value, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << value;
  return add(os.str());
}

CsvTable& CsvTable::add(long long value) { return add(std::to_string(value)); }

std::string CsvTable::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvTable::write_csv(std::ostream& os) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i > 0) os << ',';
    os << escape(header_[i]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << escape(row[i]);
    }
    os << '\n';
  }
}

void CsvTable::write_pretty(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << '\n';
  };
  emit_row(header_);
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace psnt::util
