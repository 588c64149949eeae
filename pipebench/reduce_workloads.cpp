// The two reduction workloads: netlist text → parse → MNA → reduce().
//
//   grid_reduce      320×320 RC power grid, 8 ports, SyMPVL with nested
//                    dissection at order 16, one caller.
//   manyport_reduce  128×128 grid, 256 ports, sharded SyMPVL at order 256.
//
// Each rep clears the global FactorCache first (its key is the pencil's
// content, so a kept entry would turn the next rep into a cache hit) and
// times the text→model path; the model is then swept the way a user of
// the ROM would.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "harness.hpp"
#include "linalg/factor_cache.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"
#include "sympvl.hpp"

namespace pipebench {

using namespace sympvl;

namespace {

struct ReduceSpec {
  Index side = 0;
  Index ports = 0;
  Index order = 0;
  ReduceMethod method = ReduceMethod::kSympvl;
  /// Points per sweep request on the finished ROM.
  Index sweep_points = 0;
  /// Validation frequencies of rom_rel_err (Hz) and its tolerance.
  Vec validation_hz;
  double rel_err_tol = 0.0;
};

/// Seeded element perturbation (±1%) of the generator's mesh values.
constexpr double kPerturbation = 0.01;
/// rom_rel_err and moment-0 tolerances (see README.md for the seed values).
constexpr double kMoment0Tol = 1e-9;
constexpr double kSymmetryTol = 1e-9;
constexpr double kRepeatTol = 1e-9;

std::string grid_text(const ReduceSpec& spec, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  PowerGridOptions o;
  o.ports = spec.ports;
  o.rows = o.cols = spec.side;
  o.edge_resistance *= jitter(rng, kPerturbation);
  o.decap *= jitter(rng, kPerturbation);
  o.tie_resistance *= jitter(rng, kPerturbation);
  return write_netlist(make_power_grid(o).netlist,
                       "pipebench grid seed " + std::to_string(seed));
}

struct Rep {
  double rom_s = 0.0;
  double parse_s = 0.0;
  double mna_s = 0.0;
  double reduce_s = 0.0;
  ReduceResult result;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Synthetic child spans of the reduce span from the report's stage
/// clocks, laid end to end from the span start.
void report_spans(const ReduceResult& r, double start, std::int64_t op) {
  Tracer& t = Tracer::instance();
  double at = start;
  auto stage = [&](const char* name, double seconds) {
    t.add(name, at, at + seconds, op);
    at += seconds;
  };
  if (r.shard.shards > 1) {
    stage("mor.shard.partition", r.shard.partition_seconds);
    stage("mor.factor", r.report.factor_seconds);
    stage("mor.shard.reduce", r.shard.reduce_seconds);
    stage("mor.shard.stitch", r.shard.stitch_seconds);
  } else {
    stage("mor.factor", r.report.factor_seconds);
    stage("mor.start_block", r.report.start_block_seconds);
    stage("mor.lanczos", r.report.lanczos_seconds);
  }
}

double report_stage_seconds(const ReduceResult& r) {
  if (r.shard.shards > 1)
    return r.shard.partition_seconds + r.report.factor_seconds +
           r.shard.reduce_seconds + r.shard.stitch_seconds;
  return r.report.factor_seconds + r.report.start_block_seconds +
         r.report.lanczos_seconds;
}

/// One netlist text → model rep with a cold factor cache. `keep_sys`
/// receives the assembled system when non-null (the exact reference
/// needs it).
Rep run_rep(const std::string& text, const ReduceOptions& opt,
            std::int64_t op, MnaSystem* keep_sys) {
  FactorCache::global().clear();
  const FactorCacheStats before = FactorCache::global().stats();
  Rep rep;
  Netlist netlist;
  MnaSystem sys;
  {
    Scope whole("op.rom", op);
    {
      Scope s("circuit.parse", op);
      netlist = parse_netlist(text);
      rep.parse_s = s.elapsed();
    }
    {
      Scope s("circuit.mna", op);
      sys = build_mna(netlist);
      rep.mna_s = s.elapsed();
    }
    {
      Scope s("mor.reduce", op);
      rep.result = reduce(sys, opt);
      rep.reduce_s = s.elapsed();
      if (Tracer::instance().enabled()) report_spans(rep.result, s.start(), op);
    }
    rep.rom_s = whole.elapsed();
  }
  const FactorCacheStats after = FactorCache::global().stats();
  rep.cache_hits = after.hits - before.hits;
  rep.cache_misses = after.misses - before.misses;
  if (keep_sys != nullptr) *keep_sys = std::move(sys);
  return rep;
}

Vec sweep_band(std::mt19937_64& rng, Index points) {
  // One decade starting between 1 MHz and 10 MHz.
  const double lo = 1e6 * std::pow(10.0, std::uniform_real_distribution<double>(0.0, 1.0)(rng));
  return log_frequency_grid(lo, 10.0 * lo, points);
}

void run_reduce_workload(RunContext& ctx, const ReduceSpec& spec) {
  const RunConfig& cfg = ctx.config;
  const bool traced = cfg.trace;
  Tracer& tracer = Tracer::instance();

  // --- Set-up: the seeded netlist text. It is generated again after
  // every rep: single-threaded work on this shared host runs at one of two
  // speeds for stretches of a second or so, and samples spread over the
  // whole run keep the median from landing on one stretch. ---
  std::vector<double> setups;
  auto set_up = [&] {
    const double t0 = now_s();
    std::string t = grid_text(spec, cfg.seed);
    setups.push_back(now_s() - t0);
    return t;
  };
  const std::string text = set_up();

  ReduceOptions opt;
  opt.order = spec.order;
  opt.method = spec.method;
  opt.ordering = Ordering::kNestedDissection;

  // --- Netlist text → ROM reps. A traced run alternates recorded and
  // unrecorded reps so the recorder's cost shows as obs.trace_overhead.
  // After each rep the user's view of the ROM is sampled — single sweep
  // requests for a quarter of the rep's time, then nproc closed-loop
  // callers for a tenth — so those samples span the whole run too. ---
  std::mt19937_64 band_rng(cfg.seed ^ 0x5bd1e995u);
  const Vec grid = sweep_band(band_rng, spec.sweep_points);
  std::vector<double> sweep_ms;
  // p99 of each rep's sweep segment; sweep_p99_ms is their median, so a
  // burst of host interference in one stretch of the run moves one
  // segment, not the metric.
  std::vector<double> segment_p99;
  const double t_start = now_s();
  const double rep_budget = 0.95 * cfg.seconds;
  std::int64_t loop_sweeps = 0;
  double loop_seconds = 0.0;
  std::vector<Rep> reps;
  std::vector<double> traced_rom, untraced_rom;
  MnaSystem sys;
  std::vector<CMat> first_z;
  while (reps.size() < 3 || now_s() - t_start < rep_budget) {
    const std::int64_t op = static_cast<std::int64_t>(reps.size());
    const bool record = traced && op % 2 == 0;
    tracer.set_enabled(record);
    Rep rep = run_rep(text, opt, op, &sys);
    tracer.set_enabled(false);
    (record ? traced_rom : untraced_rom).push_back(rep.rom_s);

    const ReduceResult& r = rep.result;
    const std::string at = "rep " + std::to_string(op) + ": ";
    ctx.checks.expect(r.ok() && r.status == ReductionStatus::kOk, at + "reduce status");
    if (!r.ok()) {
      reps.push_back(std::move(rep));
      break;
    }
    ctx.checks.expect(r.model.order() == spec.order,
                      at + "order " + std::to_string(r.model.order()));
    ctx.checks.expect(r.model.port_count() == spec.ports,
                      at + "ports " + std::to_string(r.model.port_count()));
    if (spec.method == ReduceMethod::kSympvl)
      ctx.checks.expect(r.report.moment0_residual <= kMoment0Tol,
                        at + "report moment0_residual");
    // Zₙ symmetric, and every rep's model equal to the first rep's.
    for (size_t k = 0; k < spec.validation_hz.size(); ++k) {
      const CMat z = r.model.eval(jw(spec.validation_hz[k]));
      ctx.checks.expect(asymmetry(z) <= kSymmetryTol, at + "Zn symmetric");
      if (first_z.size() <= k)
        first_z.push_back(z);
      else
        ctx.checks.expect(rel_diff(z, first_z[k]) <= kRepeatTol,
                          at + "model repeats");
    }
    const double sweep_until = now_s() + 0.25 * rep.rom_s;
    const size_t segment_begin = sweep_ms.size();
    for (int k = 0; k < 3 || now_s() < sweep_until; ++k) {
      const std::int64_t sop = (op + 1) * 100000 + k;
      tracer.set_enabled(traced);
      Scope s("op.sweep", sop);
      SweepResult sw;
      {
        Scope inner("sim.sweep", sop);
        sw = sweep(r.model, grid);
      }
      sweep_ms.push_back(1e3 * s.elapsed());
      tracer.set_enabled(false);
      ctx.checks.expect(sw.all_ok() && sw.size() == grid.size(), "rom sweep");
    }
    segment_p99.push_back(quantile(
        std::vector<double>(sweep_ms.begin() + static_cast<std::ptrdiff_t>(segment_begin),
                            sweep_ms.end()),
        0.99));
    {
      std::atomic<std::int64_t> done{0};
      std::atomic<bool> bad{false};
      const double t0 = now_s();
      const double until = t0 + 0.1 * rep.rom_s;
      std::vector<std::thread> callers;
      for (int c = 0; c < ctx.threads; ++c)
        callers.emplace_back([&] {
          while (now_s() < until) {
            if (!sweep(r.model, grid).all_ok()) bad = true;
            ++done;
          }
        });
      for (std::thread& c : callers) c.join();
      ctx.checks.expect(!bad, "closed-loop sweeps");
      loop_sweeps += done;
      loop_seconds += now_s() - t0;
    }
    reps.push_back(std::move(rep));
    ctx.checks.expect(set_up() == text, "set-up repeats");
  }
  ctx.end_to_end.set("setup_s", median(setups), "s");
  const Rep& last = reps.back();
  if (!last.result.ok()) return;
  const MacroModel& model = last.result.model;

  std::vector<double> rom_s, reduce_s, parse_s, mna_s;
  for (const Rep& r : reps) {
    rom_s.push_back(r.rom_s);
    reduce_s.push_back(r.reduce_s);
    parse_s.push_back(r.parse_s);
    mna_s.push_back(r.mna_s);
  }
  // Untraced reps only feed the end-to-end numbers of a traced run too.
  ctx.end_to_end.set("rom_s", median(traced ? untraced_rom : rom_s), "s");
  ctx.end_to_end.set("reduce_p50_ms", 1e3 * median(reduce_s), "ms");

  std::string samples = "[";
  for (double v : rom_s) samples += (samples.size() > 1 ? "," : "") + obs::json_number(v);
  ctx.details.emplace_back("rom_s_samples", samples + "]");
  ctx.details.emplace_back("sweep_samples", std::to_string(sweep_ms.size()));
  ctx.end_to_end.set("sweep_p50_ms", median(sweep_ms), "ms");
  ctx.end_to_end.set("sweep_p99_ms", median(segment_p99), "ms");

  // Closed-loop sweep rate of nproc library callers on the ROM.
  ctx.end_to_end.set("max_rps_slo", static_cast<double>(loop_sweeps) / loop_seconds, "1/s");
  ctx.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");

  // --- Output checks against an exact reference (not timed). ---
  double rel_err = 0.0;
  for (double hz : spec.validation_hz)
    rel_err = std::max(rel_err, rel_diff(model.eval(jw(hz)), exact_z(sys, hz)));
  const double moment0 = rel_diff(model.eval(jw(0.0)), exact_z(sys, 0.0));
  ctx.checks.expect(moment0 <= kMoment0Tol,
                    "moment0_residual " + std::to_string(moment0));
  ctx.checks.expect(rel_err <= spec.rel_err_tol,
                    "rom_rel_err " + std::to_string(rel_err));
  ctx.end_to_end.set("rom_rel_err", rel_err, "ratio");

  if (!traced) return;

  // --- Per-layer numbers (traced run). ---
  const ReduceResult& r = last.result;
  Metrics& m = ctx.per_layer;
  m.set("circuit.parse_s", median(parse_s), "s");
  m.set("circuit.mna_s", median(mna_s), "s");
  m.set("circuit.netlist_bytes", static_cast<double>(text.size()), "bytes");
  m.set("linalg.cache_hits", static_cast<double>(last.cache_hits), "count");
  m.set("linalg.cache_misses", static_cast<double>(last.cache_misses), "count");
  m.set("mor.factor_s", r.report.factor_seconds, "s");
  m.set("mor.start_block_s", r.report.start_block_seconds, "s");
  m.set("mor.lanczos_s", r.report.lanczos_seconds, "s");
  m.set("mor.lanczos_steps", static_cast<double>(r.report.lanczos_step_stats.count), "count");
  m.set("mor.lanczos_step_p50_ms", 1e3 * r.report.lanczos_step_stats.p50, "ms");
  m.set("mor.krylov_peak_bytes", static_cast<double>(r.report.krylov_peak_bytes), "bytes");
  m.set("mor.shard.partition_s", r.shard.partition_seconds, "s");
  m.set("mor.shard.reduce_s", r.shard.reduce_seconds, "s");
  m.set("mor.shard.stitch_s", r.shard.stitch_seconds, "s");
  m.set("mor.shard.count", static_cast<double>(r.shard.shards), "count");
  m.set("mor.shard.stitch_bytes", static_cast<double>(r.shard.stitch_bytes), "bytes");
  m.set("mor.unaccounted_s", last.reduce_s - report_stage_seconds(r), "s");
  m.set("sim.sweep_ms", median(sweep_ms), "ms");
  m.set("obs.trace_overhead", median(traced_rom) / median(untraced_rom), "ratio");

  tracer.set_enabled(true);
  linalg_layers(ctx, sys, r.report.s0_used, opt.ordering);

  // parallel.speedup: the same rep on one pool thread.
  set_num_threads(1);
  std::vector<double> serial;
  for (int k = 0; k < 2; ++k)
    serial.push_back(run_rep(text, opt, 2000 + k, nullptr).rom_s);
  set_num_threads(ctx.threads);
  tracer.set_enabled(false);
  m.set("parallel.speedup", median(serial) / median(rom_s), "ratio");
}

}  // namespace

void run_grid_reduce(RunContext& ctx) {
  ReduceSpec spec;
  spec.side = 320;
  spec.ports = 8;
  spec.order = 16;
  spec.method = ReduceMethod::kSympvl;
  spec.sweep_points = 4000;
  spec.validation_hz = {1e7, 1e8};
  spec.rel_err_tol = 1e-2;
  run_reduce_workload(ctx, spec);
}

void run_manyport_reduce(RunContext& ctx) {
  ReduceSpec spec;
  spec.side = 128;
  spec.ports = 256;
  spec.order = 256;
  spec.method = ReduceMethod::kShardedSympvl;
  spec.sweep_points = 4;
  spec.validation_hz = {1e6, 1e7};
  spec.rel_err_tol = 1e-3;
  run_reduce_workload(ctx, spec);
}

}  // namespace pipebench
