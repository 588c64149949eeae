// Shared machinery of the pipeline benchmark: wall clock, in-memory span
// recorder, order statistics, output checks, metric sink and the build /
// environment guard.
//
// Every layer is timed from outside, around the public call that enters
// it. A span records name, start, end, parent and the id of the
// operation (one netlist→ROM rep, one served request, ...) it belongs
// to; layer self time is a span's duration minus its children's.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "linalg/ordering.hpp"

namespace pipebench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide epoch.
double now_s();

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::string name;
  double start = 0.0;  ///< now_s() timestamps
  double end = 0.0;
  int parent = -1;     ///< index into the recorder, -1 = top level
  std::int64_t op = -1;
  int tid = 0;
};

/// Process-wide span recorder. Disabled (every call a no-op past one
/// branch) unless the run is traced.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread's stack; returns its index (-1
  /// when disabled).
  int open(const std::string& name, std::int64_t op);
  void close(int index);
  /// Records a finished span under `parent` (-1 = the calling thread's
  /// innermost open span).
  int add(const std::string& name, double start, double end,
          std::int64_t op, int parent = -1);

  std::vector<Span> snapshot() const;

  /// Self time (duration minus direct children) summed per span name.
  std::map<std::string, double> self_seconds() const;
  /// Share of the operation spans' ("op.*") wall time that falls inside
  /// their child layer spans; 0 when no operation was recorded.
  double coverage() const;
  /// Writes the spans as a Chrome trace ("X" events, µs).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; also the stopwatch of untraced runs (elapsed() always
/// works, recording only happens when the tracer is on).
class Scope {
 public:
  Scope(const std::string& name, std::int64_t op = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  double start() const { return start_; }
  double elapsed() const { return now_s() - start_; }

 private:
  double start_;
  int index_;
};

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Output checks and metrics.

/// Counts output checks; every failed check feeds error_rate and makes
/// the process exit non-zero.
class Checks {
 public:
  /// Counts one attempted check; `ok` false counts it failed.
  void expect(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::mutex mutex_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------------------------
// Run context handed to each workload.

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< result + trace files land here
};

struct RunContext {
  RunConfig config;
  Checks checks;
  Metrics end_to_end;
  Metrics per_layer;
  int threads = 1;  ///< resolved pool threads (nproc unless overridden)
  /// Extra keys of the full result file (name → JSON value): sample
  /// counts, the serving ladder's per-rung table.
  std::vector<std::pair<std::string, std::string>> details;
};

/// Uniform factor in [1 - amplitude, 1 + amplitude].
double jitter(std::mt19937_64& rng, double amplitude);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Model checks.

/// s = j·2πf.
sympvl::Complex jw(double hz);
/// max |a − b| / max |b| over all entries.
double rel_diff(const sympvl::CMat& a, const sympvl::CMat& b);
/// max |z − zᵀ| / max |z|.
double asymmetry(const sympvl::CMat& z);
/// Exact Z(j2πf) = s^k·Bᵀ(G + f(s)C)⁻¹B by a direct complex LDLᵀ with
/// nested dissection (far less fill than an RCM-ordered AC sweep).
sympvl::CMat exact_z(const sympvl::MnaSystem& sys, double hz);

/// Direct linalg calls on the workload's G + s₀C — ordering, symbolic,
/// numeric factor, 1- and p-RHS solves — into the linalg.* per-layer
/// metrics (traced runs only).
void linalg_layers(RunContext& ctx, const sympvl::MnaSystem& sys,
                   double s0, sympvl::Ordering ordering);

// ---------------------------------------------------------------------------
// Build and environment guard.

/// Run identity recorded with every result: nproc, resolved threads,
/// SIMD level, compiler, flags, build type, SYMPVL_* variables.
std::string meta_json();

/// Empty when the build and environment are fit to report numbers;
/// otherwise the reason they are not (non-Release or sanitizer build, a
/// SYMPVL_* variable that does not parse or would change behavior).
std::string guard_problem();

// Workload entry points.
void run_grid_reduce(RunContext& ctx);
void run_manyport_reduce(RunContext& ctx);
void run_serve_mixed(RunContext& ctx);

}  // namespace pipebench
