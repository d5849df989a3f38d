// Telemetry registry for the scan-grid runtime.
//
// Two instrument kinds, mirroring what a production metrics endpoint would
// export:
//
//   Counter — monotonic event count, lock-free (atomic increments from any
//             thread: samples produced, ring stalls, retries...).
//   Gauge   — latest value of a quantity (queue depth, active workers).
//
// Per-site summaries and distributions (latest readings, windows, latency
// and voltage quantiles) are not kept here: the serving layer's
// serve::TelemetryStore is the one per-site summary and
// serve::HistogramSketch the one histogram type, fed by the same drain when
// a grid attaches a store.
//
// The registry is the naming/ownership layer: instruments are created on
// first use, live as long as the registry, and snapshot together into text
// or CSV (util::CsvTable) for export.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "util/csv.h"

namespace psnt::grid {

class Counter {
 public:
  void increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class TelemetryRegistry {
 public:
  // Instruments are created on first use and are stable for the registry's
  // lifetime; concurrent lookups are safe.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  // Snapshot export: one name,value row per counter, then per gauge.
  [[nodiscard]] util::CsvTable counters_table() const;

  // Human-readable dump of every instrument.
  void write_text(std::ostream& os) const;
  // The snapshot table as CSV.
  void write_csv(std::ostream& os) const;
  // Convenience: write_csv to a file path; returns false on I/O failure.
  bool export_csv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace psnt::grid
