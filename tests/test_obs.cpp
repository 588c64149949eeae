// Tests for the observability layer: event recording, counters, JSON
// hardening, run metadata, and the SyMPVL diagnostic telemetry
// (deflation / look-ahead reporting consistency).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "circuit/mna.hpp"
#include "circuit/parser.hpp"
#include "linalg/factor_cache.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace sympvl {
namespace {

// RAII guard: every test runs with a clean, programmatically-enabled (or
// disabled) recorder and leaves the global state clean for the next test.
struct ObsGuard {
  explicit ObsGuard(bool on) {
    obs::enable(on);
    obs::reset();
  }
  ~ObsGuard() {
    obs::enable(false);
    obs::reset();
  }
};

int count_events(const std::vector<obs::Event>& events, const char* name,
                 char phase) {
  int n = 0;
  for (const auto& e : events)
    if (e.phase == phase && std::strcmp(e.name, name) == 0) ++n;
  return n;
}

const obs::Arg* find_arg(const obs::Event& e, const char* key) {
  for (int k = 0; k < e.nargs; ++k)
    if (std::strcmp(e.args[k].key, key) == 0) return &e.args[k];
  return nullptr;
}

TEST(Obs, SpansInstantsAndCounters) {
  ObsGuard guard(true);
  {
    obs::ScopedTimer span("test.span");
    span.arg("x", 3.0);
    span.arg("tag", "hello");
  }
  obs::instant("test.instant", {obs::arg("k", Index(7))});
  obs::counter("test.counter").add(2.0);
  obs::gauge("test.gauge").set(5.5);

  const auto events = obs::snapshot_events();
  ASSERT_EQ(count_events(events, "test.span", 'X'), 1);
  ASSERT_EQ(count_events(events, "test.instant", 'i'), 1);
  for (const auto& e : events) {
    if (std::strcmp(e.name, "test.span") == 0) {
      EXPECT_GE(e.dur_us, 0);
      const obs::Arg* x = find_arg(e, "x");
      ASSERT_NE(x, nullptr);
      EXPECT_EQ(x->num, 3.0);
      const obs::Arg* tag = find_arg(e, "tag");
      ASSERT_NE(tag, nullptr);
      EXPECT_STREQ(tag->str, "hello");
    }
    if (std::strcmp(e.name, "test.instant") == 0) {
      const obs::Arg* k = find_arg(e, "k");
      ASSERT_NE(k, nullptr);
      EXPECT_EQ(k->num, 7.0);
    }
  }

  bool counter_seen = false, gauge_seen = false;
  for (const auto& [name, value] : obs::snapshot_counters())
    if (name == "test.counter") {
      counter_seen = true;
      EXPECT_EQ(value, 2.0);
    }
  for (const auto& [name, value] : obs::snapshot_gauges())
    if (name == "test.gauge") {
      gauge_seen = true;
      EXPECT_EQ(value, 5.5);
    }
  EXPECT_TRUE(counter_seen);
  EXPECT_TRUE(gauge_seen);

  const std::string summary = obs::stats_summary();
  EXPECT_NE(summary.find("test.span"), std::string::npos);
  EXPECT_NE(summary.find("test.counter"), std::string::npos);
}

TEST(Obs, DisabledRecordsNothing) {
  ObsGuard guard(false);
  {
    obs::ScopedTimer span("test.disabled_span");
    span.arg("x", 1.0);
  }
  obs::instant("test.disabled_instant");
  obs::counter("test.disabled_counter").add(3.0);
  EXPECT_TRUE(obs::snapshot_events().empty());
  EXPECT_EQ(obs::counter("test.disabled_counter").value(), 0.0);
}

TEST(Obs, ParseAndMnaSpansRecorded) {
  const std::string text = "R1 a 0 1k\nC1 a 0 1p\nR2 a b 2k\n.port p a\n";
  {
    ObsGuard guard(false);
    build_mna(parse_netlist(text));
    EXPECT_TRUE(obs::snapshot_events().empty());
  }
  ObsGuard guard(true);
  build_mna(parse_netlist(text));
  const auto events = obs::snapshot_events();
  ASSERT_EQ(count_events(events, "circuit.parse", 'X'), 1);
  EXPECT_EQ(count_events(events, "circuit.mna", 'X'), 1);
  for (const auto& e : events) {
    if (std::strcmp(e.name, "circuit.parse") != 0) continue;
    const obs::Arg* bytes = find_arg(e, "bytes");
    const obs::Arg* elements = find_arg(e, "elements");
    const obs::Arg* nodes = find_arg(e, "nodes");
    ASSERT_NE(bytes, nullptr);
    ASSERT_NE(elements, nullptr);
    ASSERT_NE(nodes, nullptr);
    EXPECT_EQ(bytes->num, static_cast<double>(text.size()));
    EXPECT_EQ(elements->num, 3.0);
    EXPECT_EQ(nodes->num, 3.0);  // datum, a, b
  }
}

TEST(Obs, ResetClearsEventsAndCounters) {
  ObsGuard guard(true);
  obs::instant("test.pre_reset");
  obs::counter("test.reset_counter").add(4.0);
  obs::reset();
  EXPECT_TRUE(obs::snapshot_events().empty());
  EXPECT_EQ(obs::counter("test.reset_counter").value(), 0.0);
  obs::instant("test.post_reset");
  EXPECT_EQ(count_events(obs::snapshot_events(), "test.post_reset", 'i'), 1);
}

TEST(Obs, JsonNumberHandlesNonFinite) {
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(-HUGE_VAL), "null");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(0.0), "0");
  // Full round-trip precision for finite values.
  EXPECT_EQ(std::stod(obs::json_number(0.1)), 0.1);
}

TEST(Obs, JsonStringEscapes) {
  EXPECT_EQ(obs::json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::json_string(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Obs, JsonEmitWithMetaWritesValidDocument) {
  const std::string path = "test_obs_emit.json";
  obs::json_emit_with_meta(
      path, {{"finite", 2.5}, {"bad", std::nan("")}, {"inf", HUGE_VAL}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path.c_str());

  // Metadata block present with the host/build keys.
  EXPECT_NE(doc.find("\"meta\""), std::string::npos);
  EXPECT_NE(doc.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(doc.find("\"compiler\""), std::string::npos);
  EXPECT_NE(doc.find("\"build_type\""), std::string::npos);
  // Values: finite survives, non-finite becomes null (never nan/inf).
  EXPECT_NE(doc.find("\"finite\": 2.5"), std::string::npos);
  EXPECT_NE(doc.find("\"bad\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"inf\": null"), std::string::npos);
  EXPECT_EQ(doc.find(": nan"), std::string::npos);
  EXPECT_EQ(doc.find(": inf"), std::string::npos);
  EXPECT_EQ(doc.find(": -inf"), std::string::npos);
}

TEST(Obs, RunMetadataJson) {
  const std::string meta = obs::run_metadata_json();
  EXPECT_NE(meta.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(meta.find("\"resolved_threads\""), std::string::npos);
  EXPECT_NE(meta.find("\"compiler\""), std::string::npos);
  EXPECT_NE(meta.find("\"cxx_flags\""), std::string::npos);
  EXPECT_NE(meta.find("\"build_type\""), std::string::npos);
}

// ---- Domain telemetry: deflation / look-ahead diagnostics -----------------

// A port column duplicated exactly makes the starting block J⁻¹M⁻¹B rank
// deficient: the second copy must deflate (Algorithm 1, step 1c) during
// the first pass over the start columns.
Netlist deflation_forcing_netlist() {
  Netlist nl;
  nl.add_resistor(1, 0, 10.0);
  nl.add_resistor(1, 2, 5.0);
  nl.add_resistor(2, 3, 7.0);
  nl.add_resistor(3, 0, 20.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_capacitor(3, 0, 3e-12);
  nl.add_port(1, 0);
  nl.add_port(1, 0);  // duplicate of port 0: forces a deflation
  return nl;
}

TEST(Obs, ReportDeflationAndClusterDiagnostics) {
  const MnaSystem sys = build_mna(deflation_forcing_netlist());
  SympvlOptions opt;
  opt.order = 3;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);

  EXPECT_GE(report.deflations, 1);
  // Cluster structure covers exactly the accepted vectors.
  Index total = 0;
  for (Index sz : report.cluster_sizes) {
    EXPECT_GE(sz, 1);
    total += sz;
  }
  EXPECT_EQ(total, report.achieved_order);
  // Stage timings were measured and compose into the total.
  EXPECT_GE(report.factor_seconds, 0.0);
  EXPECT_NEAR(report.total_seconds,
              report.factor_seconds + report.start_block_seconds +
                  report.lanczos_seconds,
              1e-12);
  // Sparse path was used, so factorization telemetry is populated.
  EXPECT_FALSE(report.used_dense_fallback);
  EXPECT_GT(report.factor_fill_ratio, 0.0);
  EXPECT_GT(report.factor_flops, 0.0);
  // Moment-match property (eq. 20): the model's 0th moment reproduces
  // Bᵀ(G+s₀C)⁻¹B once the starting block is captured.
  EXPECT_LT(report.moment0_residual, 1e-8);
}

TEST(Obs, EventStreamAgreesWithReportCounters) {
  ObsGuard guard(true);
  // A factor cached by an earlier case in this process would skip the
  // ldlt.factor span counted below.
  FactorCache::global().clear();
  const MnaSystem sys = build_mna(deflation_forcing_netlist());
  SympvlOptions opt;
  opt.order = 3;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);

  const auto events = obs::snapshot_events();
  // Per-iteration instants agree with the final report.
  EXPECT_EQ(count_events(events, "lanczos.deflation", 'i'),
            static_cast<int>(report.deflations));
  EXPECT_EQ(count_events(events, "lanczos.cluster_close", 'i'),
            static_cast<int>(report.cluster_sizes.size()));
  // Every deflation instant carries the norm-vs-tolerance evidence.
  for (const auto& e : events) {
    if (std::strcmp(e.name, "lanczos.deflation") != 0) continue;
    const obs::Arg* norm = find_arg(e, "norm");
    const obs::Arg* ref = find_arg(e, "ref_norm");
    const obs::Arg* tol = find_arg(e, "deflation_tol");
    ASSERT_NE(norm, nullptr);
    ASSERT_NE(ref, nullptr);
    ASSERT_NE(tol, nullptr);
    EXPECT_LE(norm->num, tol->num * ref->num);
  }
  // Cluster-close sizes match the reported cluster structure, in order.
  size_t idx = 0;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "lanczos.cluster_close") != 0) continue;
    const obs::Arg* size = find_arg(e, "size");
    ASSERT_NE(size, nullptr);
    ASSERT_LT(idx, report.cluster_sizes.size());
    EXPECT_EQ(static_cast<Index>(size->num), report.cluster_sizes[idx++]);
  }
  // Pipeline stage spans were recorded.
  EXPECT_EQ(count_events(events, "sympvl.factor", 'X'), 1);
  EXPECT_EQ(count_events(events, "sympvl.start_block", 'X'), 1);
  EXPECT_EQ(count_events(events, "sympvl.lanczos", 'X'), 1);
  EXPECT_EQ(count_events(events, "ldlt.factor", 'X'), 1);
  // Interned counters match the event stream.
  EXPECT_EQ(obs::counter("lanczos.deflations").value(),
            static_cast<double>(report.deflations));
  EXPECT_EQ(obs::counter("lanczos.steps").value(),
            static_cast<double>(report.achieved_order));
}

TEST(Obs, ReduceEmitsOneDriverResultNamingTheMethod) {
  // One "driver.result" instant per reduce() call, for every method — the
  // sharded path's 1-shard delegation included.
  const MnaSystem sys = build_mna(deflation_forcing_netlist());
  for (ReduceMethod method :
       {ReduceMethod::kSympvl, ReduceMethod::kShardedSympvl,
        ReduceMethod::kSypvl, ReduceMethod::kPvl, ReduceMethod::kArnoldi}) {
    SCOPED_TRACE(reduce_method_name(method));
    ObsGuard guard(true);
    ReduceOptions opt;
    opt.order = 2;
    opt.method = method;
    const ReduceResult res = reduce(sys, opt);
    const auto events = obs::snapshot_events();
    ASSERT_EQ(count_events(events, "driver.result", 'i'), 1);
    for (const auto& e : events) {
      if (std::strcmp(e.name, "driver.result") != 0) continue;
      const obs::Arg* driver = find_arg(e, "driver");
      ASSERT_NE(driver, nullptr);
      EXPECT_STREQ(driver->str, reduce_method_name(method));
      const obs::Arg* status = find_arg(e, "status");
      ASSERT_NE(status, nullptr);
      EXPECT_STREQ(status->str, reduction_status_name(res.status));
    }
  }
}

TEST(Obs, WriteChromeTraceProducesParseableJson) {
  ObsGuard guard(true);
  {
    obs::ScopedTimer span("test.trace_span");
    span.arg("n", Index(4));
  }
  obs::instant("test.trace_instant", {obs::arg("v", 1.0)});
  const std::string path = "test_obs_trace.json";
  obs::write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path.c_str());

  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.trace_span\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

}  // namespace
}  // namespace sympvl
