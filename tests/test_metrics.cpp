// Tests for the Metrics v2 layer: log-bucketed latency histograms (and
// their span feed), byte gauges / MemCharge memory accounting, the
// Prometheus text exposition, and the upgraded stats summary.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_circuit.hpp"
#include "mor/sympvl.hpp"
#include "obs/histogram.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"
#include "obs/prom_export.hpp"

namespace sympvl {
namespace {

// RAII guard: clean, programmatically-enabled (or disabled) recorder,
// left clean for the next test (mirrors test_obs.cpp).
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

TEST(Histogram, BucketLayoutIsMonotoneAndBounded) {
  using namespace obs;
  EXPECT_EQ(histogram_bucket(0.0), 0);
  EXPECT_EQ(histogram_bucket(-1.0), 0);
  EXPECT_EQ(histogram_bucket(std::nan("")), 0);
  EXPECT_EQ(histogram_bucket(kHistMin / 2), 0);
  EXPECT_EQ(histogram_bucket(kHistMin), 1);
  EXPECT_EQ(histogram_bucket(1e9), kHistBuckets - 1);

  int prev = 0;
  for (double v = kHistMin / 10; v < 1e4; v *= 1.07) {
    const int b = histogram_bucket(v);
    EXPECT_GE(b, prev) << "bucket index regressed at " << v;
    EXPECT_GE(b, 0);
    EXPECT_LT(b, kHistBuckets);
    // Every non-overflow value sits strictly below its bucket's bound.
    if (b < kHistBuckets - 1) {
      EXPECT_LT(v, histogram_upper_bound(b));
    }
    prev = b;
  }
  EXPECT_TRUE(std::isinf(histogram_upper_bound(kHistBuckets - 1)));
}

TEST(Histogram, BinsMomentsAndQuantiles) {
  obs::HistogramBins bins;
  EXPECT_TRUE(bins.empty());
  EXPECT_EQ(bins.quantile(0.5), 0.0);

  const std::vector<double> samples = {1e-5, 2e-5, 5e-5, 1e-4, 1e-3};
  for (double s : samples) bins.record(s);
  EXPECT_EQ(bins.count, samples.size());
  EXPECT_DOUBLE_EQ(bins.min, 1e-5);
  EXPECT_DOUBLE_EQ(bins.max, 1e-3);
  EXPECT_NEAR(bins.mean(), (1e-5 + 2e-5 + 5e-5 + 1e-4 + 1e-3) / 5, 1e-12);

  // Quantiles are clamped to [min, max] and monotone in q.
  EXPECT_DOUBLE_EQ(bins.quantile(0.0), bins.min);
  EXPECT_DOUBLE_EQ(bins.quantile(1.0), bins.max);
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double v = bins.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, bins.min);
    EXPECT_LE(v, bins.max);
    prev = v;
  }
  // The p50 of this sample set lives in the 5e-5 bucket (log-resolution
  // 10^(1/8) ≈ 1.33).
  EXPECT_NEAR(bins.quantile(0.5), 5e-5, 5e-5 * 0.35);
}

TEST(Histogram, MergeAddsCountsAndMoments) {
  obs::HistogramBins a, b;
  a.record(1e-4);
  a.record(2e-4);
  b.record(5e-2);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.min, 1e-4);
  EXPECT_DOUBLE_EQ(a.max, 5e-2);
  EXPECT_NEAR(a.sum, 1e-4 + 2e-4 + 5e-2, 1e-12);
  // Merging an empty histogram is a no-op.
  obs::HistogramBins empty;
  a.merge(empty);
  EXPECT_EQ(a.count, 3u);
}

TEST(Histogram, LatencyStatsDigestIsOrdered) {
  obs::HistogramBins bins;
  for (int i = 1; i <= 1000; ++i) bins.record(1e-6 * i);
  const obs::LatencyStats s = latency_stats(bins);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GT(s.mean, 0.0);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  ObsGuard guard(true);
  obs::Histogram& h = obs::histogram("test.concurrent_hist");
  h.reset();
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record_unchecked(1e-6 * (t + 1));
    });
  for (auto& w : workers) w.join();
  const obs::HistogramBins bins = h.snapshot();
  EXPECT_EQ(bins.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(bins.min, 1e-6);
  EXPECT_DOUBLE_EQ(bins.max, 4e-6);
  h.reset();
  EXPECT_TRUE(h.snapshot().empty());
}

TEST(Histogram, GatedRecordDropsWhenDisabled) {
  ObsGuard guard(false);
  obs::Histogram& h = obs::histogram("test.gated_hist");
  h.reset();
  h.record(1e-3);
  EXPECT_TRUE(h.snapshot().empty());
}

TEST(Histogram, SpansFeedHistogramsAutomatically) {
  ObsGuard guard(true);
  for (int i = 0; i < 3; ++i) {
    obs::ScopedTimer span("test.fed_span");
  }
  bool found = false;
  for (const auto& [name, bins] : obs::snapshot_histograms())
    if (name == "test.fed_span") {
      found = true;
      EXPECT_EQ(bins.count, 3u);
    }
  EXPECT_TRUE(found);
  // obs::reset() zeroes the histograms too.
  obs::reset();
  for (const auto& [name, bins] : obs::snapshot_histograms())
    if (name == "test.fed_span") {
      EXPECT_TRUE(bins.empty());
    }
}

TEST(MemStat, ByteGaugeTracksCurrentAndPeak) {
  obs::ByteGauge g;
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
  g.add(1000);
  g.add(500);
  EXPECT_EQ(g.value(), 1500);
  EXPECT_EQ(g.peak(), 1500);
  g.add(-800);
  EXPECT_EQ(g.value(), 700);
  EXPECT_EQ(g.peak(), 1500);  // peak is a high-water mark
  g.reset_peak();
  EXPECT_EQ(g.peak(), 700);  // dropped to the current value, not zero
}

TEST(MemStat, MemChargeIsRaiiAndCopyDuplicates) {
  obs::ByteGauge& g = obs::byte_gauge("test.mem_charge_gauge");
  const std::int64_t base = g.value();
  {
    obs::MemCharge c(g, 4096);
    EXPECT_EQ(g.value(), base + 4096);
    {
      obs::MemCharge copy(c);  // a copy holds its own bytes
      EXPECT_EQ(g.value(), base + 8192);
      obs::MemCharge moved(std::move(copy));  // a move transfers the charge
      EXPECT_EQ(g.value(), base + 8192);
    }
    EXPECT_EQ(g.value(), base + 4096);
    c.set(1024);  // re-statement applies the delta
    EXPECT_EQ(g.value(), base + 1024);
    c.reset();  // early release detaches
    EXPECT_EQ(g.value(), base);
  }
  EXPECT_EQ(g.value(), base);
}

TEST(MemStat, ByteGaugesAreAlwaysOnAndSnapshotted) {
  ObsGuard guard(false);  // gauges are NOT gated on obs::enabled()
  obs::byte_gauge("test.always_on_gauge").add(12345);
  bool found = false;
  for (const auto& s : obs::snapshot_byte_gauges())
    if (s.name == "test.always_on_gauge") {
      found = true;
      EXPECT_GE(s.current, 12345);
      EXPECT_GE(s.peak, s.current);
    }
  EXPECT_TRUE(found);
  obs::byte_gauge("test.always_on_gauge").add(-12345);
}

TEST(MemStat, PeakRssIsReported) {
  EXPECT_GT(obs::peak_rss_bytes(), 0);
}

TEST(PromExport, MetricNameSanitization) {
  EXPECT_EQ(obs::prometheus_metric_name("factor_cache.hit"),
            "sympvl_factor_cache_hit");
  EXPECT_EQ(obs::prometheus_metric_name("kernel.panel_update"),
            "sympvl_kernel_panel_update");
  EXPECT_EQ(obs::prometheus_metric_name("weird metric-name!"),
            "sympvl_weird_metric_name_");
}

TEST(PromExport, ExpositionFormatBasics) {
  ObsGuard guard(true);
  obs::counter("test.prom_counter").add(7.0);
  obs::gauge("test.prom_gauge").set(2.5);
  {
    obs::ScopedTimer span("test.prom_span");
  }
  std::ostringstream out;
  obs::export_prometheus(out);
  const std::string doc = out.str();

  // Counter family: HELP + TYPE + a _total sample.
  EXPECT_NE(doc.find("# HELP sympvl_test_prom_counter_total"),
            std::string::npos);
  EXPECT_NE(doc.find("# TYPE sympvl_test_prom_counter_total counter"),
            std::string::npos);
  EXPECT_NE(doc.find("sympvl_test_prom_counter_total 7"), std::string::npos);
  EXPECT_NE(doc.find("sympvl_test_prom_gauge 2.5"), std::string::npos);

  // Span histogram family with cumulative buckets ending at +Inf.
  EXPECT_NE(doc.find("# TYPE sympvl_span_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      doc.find(
          "sympvl_span_duration_seconds_bucket{span=\"test.prom_span\",le="),
      std::string::npos);
  EXPECT_NE(doc.find("le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(doc.find("sympvl_span_duration_seconds_count{span="
                     "\"test.prom_span\"} 1"),
            std::string::npos);

  // Summary family carries the three precomputed quantiles.
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(doc.find("quantile=\"" + std::string(q) + "\"}"),
              std::string::npos);
  }

  // Build identity + process memory are always present.
  EXPECT_NE(doc.find("sympvl_build_info{compiler="), std::string::npos);
  EXPECT_NE(doc.find("sympvl_process_peak_rss_bytes"), std::string::npos);

  // Bucket counts are cumulative (monotone) per span family.
  std::istringstream lines(doc);
  std::string line;
  long long prev = -1;
  while (std::getline(lines, line)) {
    if (line.find("sympvl_span_duration_seconds_bucket{span=\"test.prom_"
                  "span\"") != 0)
      continue;
    const long long v = std::atoll(line.c_str() + line.rfind(' ') + 1);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_GE(prev, 1);
}

TEST(PromExport, StatsSummaryCarriesLatencyColumns) {
  ObsGuard guard(true);
  for (int i = 0; i < 5; ++i) {
    obs::ScopedTimer span("test.summary_span");
  }
  const std::string summary = obs::stats_summary();
  for (const char* col : {"count", "mean_ms", "p50_ms", "p99_ms"})
    EXPECT_NE(summary.find(col), std::string::npos) << col;
  EXPECT_NE(summary.find("test.summary_span"), std::string::npos);
}

TEST(Metrics, SympvlReportCarriesByteAndStepStats) {
  // The report's memory + latency fields are always-on: no obs enable.
  ObsGuard guard(false);
  const MnaSystem sys =
      build_mna(random_rc({.nodes = 60, .ports = 2, .seed = 5}));
  SympvlOptions opt;
  opt.order = 10;
  SympvlReport report;
  sympvl_reduce(sys, opt, &report);
  EXPECT_GT(report.factor_bytes, 0);
  EXPECT_GT(report.krylov_peak_bytes, 0);
  EXPECT_GT(report.peak_rss_bytes, 0);
  EXPECT_GE(report.lanczos_step_stats.count, 10u);
  EXPECT_LE(report.lanczos_step_stats.p50, report.lanczos_step_stats.p99);
  EXPECT_GT(report.lanczos_step_stats.max, 0.0);
}

TEST(Metrics, KrylovGaugeReleasesOnSessionDestruction) {
  ObsGuard guard(false);
  obs::ByteGauge& g = obs::byte_gauge("mem.krylov_bytes");
  const std::int64_t base = g.value();
  {
    const MnaSystem sys =
        build_mna(random_rc({.nodes = 50, .ports = 2, .seed = 9}));
    SympvlOptions opt;
    opt.order = 8;
    SympvlSession session(sys, opt);
    EXPECT_GT(g.value(), base);
  }
  EXPECT_EQ(g.value(), base);
}

}  // namespace
}  // namespace sympvl
