#include "grid/telemetry.h"

#include <fstream>

namespace psnt::grid {

Counter& TelemetryRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& TelemetryRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

util::CsvTable TelemetryRegistry::counters_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::CsvTable table({"metric", "value"});
  for (const auto& [name, c] : counters_) {
    table.new_row().add(name).add(
        static_cast<long long>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    table.new_row().add(name).add(g->value(), 6);
  }
  return table;
}

void TelemetryRegistry::write_text(std::ostream& os) const {
  os << "== counters/gauges ==\n";
  counters_table().write_pretty(os);
}

void TelemetryRegistry::write_csv(std::ostream& os) const {
  counters_table().write_csv(os);
}

bool TelemetryRegistry::export_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  write_csv(file);
  return static_cast<bool>(file);
}

}  // namespace psnt::grid
