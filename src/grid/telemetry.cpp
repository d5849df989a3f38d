#include "grid/telemetry.h"

#include <fstream>

#include "util/error.h"

namespace psnt::grid {

stats::OnlineStats SiteRollup::merged() const {
  stats::OnlineStats all;
  for (const auto& s : sites_) all.merge(s);
  return all;
}

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

SiteRollup& TelemetryRegistry::site_rollup(const std::string& name,
                                           std::size_t site_count) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = rollups_[name];
  if (!slot) slot = std::make_unique<SiteRollup>(site_count);
  PSNT_CHECK(slot->site_count() == site_count,
             "site_rollup re-registered with a different site count");
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

util::CsvTable TelemetryRegistry::site_rollups_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::CsvTable table(
      {"rollup", "site", "count", "mean", "stddev", "min", "max"});
  for (const auto& [name, r] : rollups_) {
    for (std::size_t i = 0; i < r->site_count(); ++i) {
      const auto& s = r->site(i);
      table.new_row()
          .add(name)
          .add(static_cast<long long>(i))
          .add(static_cast<long long>(s.count()))
          .add(s.mean(), 6)
          .add(s.stddev(), 6)
          .add(s.count() ? s.min() : 0.0, 6)
          .add(s.count() ? s.max() : 0.0, 6);
    }
  }
  return table;
}

void TelemetryRegistry::write_text(std::ostream& os) const {
  os << "== counters/gauges ==\n";
  counters_table().write_pretty(os);
  const auto rollups = site_rollups_table();
  if (rollups.row_count() > 0) {
    os << "== per-site rollups ==\n";
    rollups.write_pretty(os);
  }
}

void TelemetryRegistry::write_csv(std::ostream& os) const {
  counters_table().write_csv(os);
  os << "\n";
  site_rollups_table().write_csv(os);
}

bool TelemetryRegistry::export_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  write_csv(file);
  return static_cast<bool>(file);
}

}  // namespace psnt::grid
