#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "grid/telemetry.h"

namespace psnt::grid {
namespace {

TEST(Telemetry, CounterIsMonotonicAndSharedByName) {
  TelemetryRegistry reg;
  reg.counter("samples").increment();
  reg.counter("samples").increment(9);
  EXPECT_EQ(reg.counter("samples").value(), 10u);
  EXPECT_EQ(reg.counter("other").value(), 0u);
}

TEST(Telemetry, CounterSurvivesConcurrentIncrements) {
  TelemetryRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Lookup + increment from every thread: exercises the registry lock
      // and the atomic counter together.
      for (int i = 0; i < kPerThread; ++i) reg.counter("hits").increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("hits").value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Telemetry, GaugeHoldsLatestValue) {
  TelemetryRegistry reg;
  reg.gauge("depth").set(3.0);
  reg.gauge("depth").set(1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 1.5);
}

TEST(Telemetry, SnapshotTablesContainEveryInstrument) {
  TelemetryRegistry reg;
  reg.counter("produced").increment(42);
  reg.gauge("depth").set(2.0);

  const auto counters = reg.counters_table();
  ASSERT_EQ(counters.row_count(), 2u);  // counter + gauge
  EXPECT_EQ(counters.rows()[0][0], "produced");
  EXPECT_EQ(counters.rows()[0][1], "42");
  EXPECT_EQ(counters.rows()[1][0], "depth");

  std::ostringstream text;
  reg.write_text(text);
  EXPECT_NE(text.str().find("produced"), std::string::npos);
  EXPECT_NE(text.str().find("depth"), std::string::npos);

  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("metric,value"), std::string::npos);
  EXPECT_NE(csv.str().find("produced,42"), std::string::npos);
  EXPECT_NE(csv.str().find("depth,2"), std::string::npos);
}

TEST(Telemetry, ExportCsvWritesFile) {
  TelemetryRegistry reg;
  reg.counter("c").increment();
  const std::string path = ::testing::TempDir() + "psnt_telemetry_test.csv";
  ASSERT_TRUE(reg.export_csv(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("c,1"), std::string::npos);
  EXPECT_FALSE(reg.export_csv("/nonexistent-dir/x/y.csv"));
}

}  // namespace
}  // namespace psnt::grid
