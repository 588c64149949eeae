#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "linalg/simd.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

extern char** environ;

namespace pipebench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// ---------------------------------------------------------------------------
// Spans.

namespace {

thread_local std::vector<int> t_stack;

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next++;
  return id;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const std::string& name, std::int64_t op) {
  if (!enabled()) return -1;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  const int parent = t_stack.empty() ? -1 : t_stack.back();
  spans_.push_back({name, t, t, parent, op, thread_id()});
  const int index = static_cast<int>(spans_.size()) - 1;
  t_stack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end = t;
  if (!t_stack.empty() && t_stack.back() == index) t_stack.pop_back();
}

int Tracer::add(const std::string& name, double start, double end,
                std::int64_t op, int parent) {
  if (!enabled()) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  if (parent < 0 && !t_stack.empty()) parent = t_stack.back();
  spans_.push_back({name, start, end, parent, op, thread_id()});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

std::vector<double> child_seconds(const std::vector<Span>& spans) {
  std::vector<double> children(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)] += s.end - s.start;
  return children;
}

}  // namespace

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> spans = snapshot();
  const std::vector<double> children = child_seconds(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += spans[i].end - spans[i].start - children[i];
  return out;
}

double Tracer::coverage() const {
  const std::vector<Span> spans = snapshot();
  const std::vector<double> children = child_seconds(spans);
  double wall = 0.0, inside = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name.rfind("op.", 0) != 0) continue;
    wall += spans[i].end - spans[i].start;
    inside += children[i];
  }
  return wall > 0.0 ? inside / wall : 0.0;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << sympvl::obs::json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << sympvl::obs::json_number(s.start * 1e6)
        << ",\"dur\":" << sympvl::obs::json_number((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
}

Scope::Scope(const std::string& name, std::int64_t op)
    : start_(now_s()), index_(Tracer::instance().open(name, op)) {}

Scope::~Scope() { Tracer::instance().close(index_); }

// ---------------------------------------------------------------------------
// Statistics.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Checks and metrics.

void Checks::expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) {
    failures_.push_back(what);
    std::cerr << "pipebench: check failed: " << what << "\n";
  }
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  items_.push_back({name, value, unit});
}

double jitter(std::mt19937_64& rng, double amplitude) {
  return 1.0 + amplitude * std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Model checks.

using sympvl::CMat;
using sympvl::Complex;
using sympvl::Index;

Complex jw(double hz) { return Complex(0.0, 2.0 * M_PI * hz); }

double rel_diff(const CMat& a, const CMat& b) {
  double num = 0.0, den = 0.0;
  for (Index i = 0; i < b.rows(); ++i)
    for (Index j = 0; j < b.cols(); ++j) {
      num = std::max(num, std::abs(a(i, j) - b(i, j)));
      den = std::max(den, std::abs(b(i, j)));
    }
  return den > 0.0 ? num / den : num;
}

double asymmetry(const CMat& z) {
  double num = 0.0, den = 0.0;
  for (Index i = 0; i < z.rows(); ++i)
    for (Index j = 0; j < z.cols(); ++j) {
      num = std::max(num, std::abs(z(i, j) - z(j, i)));
      den = std::max(den, std::abs(z(i, j)));
    }
  return den > 0.0 ? num / den : num;
}

CMat exact_z(const sympvl::MnaSystem& sys, double hz) {
  const Complex s = jw(hz);
  const sympvl::SparseLDLT<Complex> ldlt(
      sympvl::pencil_combine(sys.G, sys.C, sys.map_s(s)),
      sympvl::Ordering::kNestedDissection);
  const Index n = sys.size(), p = sys.port_count();
  CMat b(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) b(i, j) = sys.B(i, j);
  const CMat x = ldlt.solve(b);
  // Z = Bᵀx over B's nonzeros (port incidence columns are nearly empty).
  std::vector<std::vector<std::pair<Index, double>>> nz(static_cast<size_t>(p));
  for (Index k = 0; k < n; ++k)
    for (Index i = 0; i < p; ++i)
      if (sys.B(k, i) != 0.0) nz[static_cast<size_t>(i)].emplace_back(k, sys.B(k, i));
  CMat z(p, p);
  for (Index i = 0; i < p; ++i)
    for (Index j = 0; j < p; ++j) {
      Complex acc = 0.0;
      for (const auto& [k, v] : nz[static_cast<size_t>(i)]) acc += v * x(k, j);
      z(i, j) = sys.prefactor(s) * acc;
    }
  return z;
}

void linalg_layers(RunContext& ctx, const sympvl::MnaSystem& sys, double s0,
                   sympvl::Ordering ordering) {
  using namespace sympvl;
  const SMat a = SMat::add(sys.G, 1.0, sys.C, s0);
  std::vector<Index> perm;
  double t = now_s();
  {
    Scope s("linalg.ordering");
    perm = make_ordering(a, ordering);
  }
  const double ordering_s = now_s() - t;
  std::shared_ptr<const LdltSymbolic> symbolic;
  t = now_s();
  {
    // The public symbolic constructor orders internally; its symbolic
    // share is the call minus the ordering timed above.
    Scope s("linalg.symbolic");
    symbolic = std::make_shared<const LdltSymbolic>(a, ordering);
  }
  const double symbolic_s = std::max(0.0, now_s() - t - ordering_s);
  t = now_s();
  std::unique_ptr<SparseLDLT<double>> ldlt;
  {
    Scope s("linalg.numeric");
    ldlt = std::make_unique<SparseLDLT<double>>(a, symbolic);
  }
  const double numeric_s = now_s() - t;
  std::vector<double> rhs(static_cast<size_t>(a.rows()));
  for (Index i = 0; i < a.rows(); ++i) rhs[static_cast<size_t>(i)] = sys.B(i, 0);
  t = now_s();
  {
    Scope s("linalg.solve1");
    (void)ldlt->solve(rhs);
  }
  const double solve1_s = now_s() - t;
  t = now_s();
  {
    Scope s("linalg.solvep");
    (void)ldlt->solve(sys.B);
  }
  const double solvep_s = now_s() - t;
  Metrics& m = ctx.per_layer;
  m.set("linalg.ordering_s", ordering_s, "s");
  m.set("linalg.symbolic_s", symbolic_s, "s");
  m.set("linalg.numeric_s", numeric_s, "s");
  m.set("linalg.solve1_s", solve1_s, "s");
  m.set("linalg.solvep_s", solvep_s, "s");
  m.set("linalg.nnz_l", static_cast<double>(ldlt->l_nnz()), "count");
  m.set("linalg.flops", ldlt->flops(), "count");
  m.set("linalg.supernodes", static_cast<double>(ldlt->supernode_count()), "count");
  m.set("linalg.factor_bytes", static_cast<double>(ldlt->factor_bytes()), "bytes");
}

// ---------------------------------------------------------------------------
// Build and environment guard.

namespace {

std::vector<std::pair<std::string, std::string>> sympvl_env() {
  std::vector<std::pair<std::string, std::string>> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("SYMPVL_", 0) != 0) continue;
    const size_t eq = kv.find('=');
    out.emplace_back(kv.substr(0, eq),
                     eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool positive_integer(const std::string& v) {
  if (v.empty() || v.size() > 6) return false;
  for (char c : v)
    if (c < '0' || c > '9') return false;
  return std::atol(v.c_str()) >= 1;
}

bool one_of(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed)
    if (v == a) return true;
  return false;
}

/// Empty when `value` is a valid spelling for `name`. Fault injection and
/// the obs sinks change what a run does, so the benchmark refuses them.
std::string env_problem(const std::string& name, const std::string& value) {
  bool ok = false;
  if (name == "SYMPVL_NUM_THREADS" || name == "SYMPVL_PORT_SHARDS" ||
      name == "SYMPVL_FACTOR_CACHE_CAP")
    ok = positive_integer(value);
  else if (name == "SYMPVL_KERNEL")
    ok = one_of(value, {"auto", "simplicial", "supernodal"});
  else if (name == "SYMPVL_SIMD")
    ok = one_of(value, {"auto", "scalar", "avx2", "avx512"});
  else if (name == "SYMPVL_FACTOR_CACHE")
    ok = one_of(value, {"1", "on"});
  else
    return name + " is not allowed in a benchmark run";
  return ok ? "" : name + "=" + value + " does not parse";
}

}  // namespace

std::string meta_json() {
  using sympvl::obs::json_string;
  std::string env = "{";
  for (const auto& [k, v] : sympvl_env())
    env += (env.size() > 1 ? "," : "") + json_string(k) + ":" + json_string(v);
  env += "}";
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"threads\":" + std::to_string(sympvl::num_threads()) +
         ",\"simd_level\":" +
         json_string(sympvl::simd_level_name(
             sympvl::resolve_simd_level(sympvl::SimdLevel::kAuto))) +
         ",\"compiler\":" + json_string(sympvl::obs::detail::build_compiler()) +
         ",\"cxx_flags\":" + json_string(sympvl::obs::detail::cxx_flags()) +
         ",\"build_type\":" + json_string(sympvl::obs::detail::build_type()) +
         ",\"sympvl_env\":" + env + "}";
}

std::string guard_problem() {
  if (std::strcmp(sympvl::obs::detail::build_type(), "Release") != 0)
    return std::string("library build type is '") +
           sympvl::obs::detail::build_type() + "', not Release";
  if (std::strstr(sympvl::obs::detail::cxx_flags(), "-fsanitize") != nullptr)
    return "library was built with a sanitizer";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "benchmark was built with a sanitizer";
#endif
#ifndef NDEBUG
  return "benchmark was built with assertions on";
#endif
  for (const auto& [k, v] : sympvl_env()) {
    const std::string problem = env_problem(k, v);
    if (!problem.empty()) return problem;
  }
  return "";
}

}  // namespace pipebench
