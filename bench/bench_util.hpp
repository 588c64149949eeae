// Shared helpers for the experiment benches: each bench binary prints the
// data series of one paper figure/claim as CSV on stdout, then runs
// google-benchmark timings for the algorithmic kernels involved.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "linalg/dense.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/sweep.hpp"

namespace sympvl::bench {

/// Prints a CSV header line: columns joined by commas, prefixed by a
/// section banner so the output of consecutive tables stays readable.
inline void csv_begin(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n### %s\n", title.c_str());
  for (size_t i = 0; i < columns.size(); ++i)
    std::printf("%s%s", i ? "," : "", columns[i].c_str());
  std::printf("\n");
}

inline void csv_row(const std::vector<double>& values) {
  for (size_t i = 0; i < values.size(); ++i)
    std::printf("%s%.8e", i ? "," : "", values[i]);
  std::printf("\n");
}

/// Max relative deviation between two complex matrices.
inline double max_rel_err(const CMat& a, const CMat& b) {
  double num = 0.0;
  const double den = b.max_abs() + 1e-300;
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j)
      num = std::max(num, std::abs(a(i, j) - b(i, j)));
  return num / den;
}

/// Max per-point max_rel_err over two whole sweeps, scanned in parallel
/// (one partial max per chunk, combined serially — same result as the
/// serial scan since max is order-independent).
inline double max_rel_err_sweep(const std::vector<CMat>& a,
                                const std::vector<CMat>& b) {
  const Index count = static_cast<Index>(std::min(a.size(), b.size()));
  std::vector<double> partial(static_cast<size_t>(num_threads()), 0.0);
  parallel_for_chunks(Index(0), count, [&](Index rank, Index lo, Index hi) {
    double m = 0.0;
    for (Index k = lo; k < hi; ++k)
      m = std::max(m, max_rel_err(a[static_cast<size_t>(k)],
                                  b[static_cast<size_t>(k)]));
    partial[static_cast<size_t>(rank)] = m;
  });
  double m = 0.0;
  for (double v : partial) m = std::max(m, v);
  return m;
}

/// SweepResult-aware overloads: scan the contained matrices directly.
inline double max_rel_err_sweep(const SweepResult& a,
                                const std::vector<CMat>& b) {
  return max_rel_err_sweep(a.values, b);
}
inline double max_rel_err_sweep(const std::vector<CMat>& a,
                                const SweepResult& b) {
  return max_rel_err_sweep(a, b.values);
}
inline double max_rel_err_sweep(const SweepResult& a, const SweepResult& b) {
  return max_rel_err_sweep(a.values, b.values);
}

/// Writes a flat JSON object of numeric results to `path` — the uniform
/// machine-readable format for all BENCH_*.json perf-trajectory files.
/// Every file carries a "meta" block (host, thread config, compiler,
/// build type) so perf numbers stay attributable to the machine and
/// build that produced them; non-finite values are emitted as null.
inline void json_emit(const std::string& path,
                      const std::vector<std::pair<std::string, double>>& kv) {
  obs::json_emit_with_meta(path, kv);
}

/// Overload with numeric-list series appended after the scalars (e.g. a
/// time-vs-ports curve); check_perf.py gates list "*_s" keys element-wise.
inline void json_emit(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& kv,
    const std::vector<std::pair<std::string, std::vector<double>>>& series) {
  obs::json_emit_with_meta(path, kv, series);
}

/// Standard main body: print the experiment tables, then run benchmarks.
/// The obs sinks (SYMPVL_TRACE / SYMPVL_STATS / SYMPVL_METRICS) are
/// written by the atexit hook the environment installs.
#define SYMPVL_BENCH_MAIN(print_tables_fn)                         \
  int main(int argc, char** argv) {                                \
    print_tables_fn();                                             \
    ::benchmark::Initialize(&argc, argv);                          \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                         \
    ::benchmark::Shutdown();                                       \
    return 0;                                                      \
  }

}  // namespace sympvl::bench
