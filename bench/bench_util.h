// Shared reporting helpers for the reproduction benches.
//
// Every bench binary prints its reproduction table(s) before handing control
// to google-benchmark, so `for b in build/bench/*; do $b; done` regenerates
// every figure/table of the paper in one pass (EXPERIMENTS.md records the
// outputs).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "util/csv.h"

namespace psnt::bench {

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

inline void print_table(const util::CsvTable& table) {
  table.write_pretty(std::cout);
}

// Standard main: report first, then microbenchmarks.
#define PSNT_BENCH_MAIN(report_fn)                     \
  int main(int argc, char** argv) {                    \
    report_fn();                                       \
    ::benchmark::Initialize(&argc, argv);              \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();             \
    ::benchmark::Shutdown();                           \
    return 0;                                          \
  }

}  // namespace psnt::bench
