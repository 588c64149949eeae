// serve_mixed: a serve::Daemon on loopback TCP driven open-loop.
//
// The warm ROM is the paper-scale 64-pin package (16 ports, order 48).
// Each rung of a fixed offered-rate ladder replays a schedule of Poisson
// arrivals; every 20th request is a reduce write of a seeded package
// variant that misses the registry and churns its LRU, the rest are sweep
// reads of 100 points from a few seeded bands, alternately for 3 seeded
// entries and for the full 16×16 matrix. The arrival times come from a
// fixed stream, the same for every seed: the tail latencies then compare
// across seeds and commits instead of tracking one seed's bursts. nproc generator threads, one
// keep-alive connection each, take the schedule in order; a request's
// latency runs from its scheduled send time, so time spent waiting for a
// free connection counts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "harness.hpp"
#include "linalg/factor_cache.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sympvl.hpp"

namespace pipebench {

using namespace sympvl;

namespace {

constexpr Index kOrder = 48;
constexpr Index kPorts = 16;
constexpr Index kSweepPoints = 100;
constexpr int kBands = 4;
constexpr int kWriteEvery = 20;  ///< every 20th request is a write (5%)
constexpr double kSampleShare = 0.02;   ///< sweep replies checked in full
constexpr double kPerturbation = 0.01;  ///< seeded element spread
/// Offered rates (requests/s); the reference rate carries sweep_p50/p99
/// and reduce_p50.
/// The reference rate sits well below capacity, so that a slow spell of
/// a shared host moves its latencies without tipping it into saturation.
constexpr double kLadder[] = {15.0, 25.0, 40.0, 55.0, 75.0, 100.0, 130.0};
constexpr size_t kReferenceRung = 1;
/// Segments in the order they run. A reference segment is twice as long
/// as the others, so the reference rate gets 2/3 of the ladder's time,
/// spread over the run so that a slow spell of the host does not land on
/// it alone.
constexpr size_t kPlan[] = {1, 0, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6};
constexpr double kReferenceWeight = 2.0;
/// Sweep p99 limit of max_rps_slo.
constexpr double kSloP99Ms = 250.0;
/// rom_rel_err: max over 12 validation frequencies, log-spaced over this
/// band, and its tolerance.
constexpr double kValidationLoHz = 2e8, kValidationHiHz = 2e9;
constexpr Index kValidationPoints = 12;
constexpr double kRelErrTol = 5e-2;
constexpr double kMoment0Tol = 1e-9;
constexpr double kSymmetryTol = 1e-9;
constexpr double kReplyTol = 1e-12;

const std::string kOkPrefix = "{\"v\":1,\"ok\":true";

std::string package_text(std::uint64_t seed, std::uint64_t variant) {
  std::mt19937_64 rng(seed * 1000003u + variant);
  PackageOptions o;
  o.series_resistance *= jitter(rng, kPerturbation);
  o.series_inductance *= jitter(rng, kPerturbation);
  o.shunt_capacitance *= jitter(rng, kPerturbation);
  o.neighbor_capacitance *= jitter(rng, kPerturbation);
  return write_netlist(make_package_circuit(o).netlist,
                       "pipebench package seed " + std::to_string(seed) +
                           " variant " + std::to_string(variant));
}

std::string reduce_body(const std::string& text, const std::string& id) {
  return "{\"v\":1,\"op\":\"reduce\",\"id\":" + obs::json_string(id) +
         ",\"netlist\":" + obs::json_string(text) +
         ",\"options\":{\"order\":" + std::to_string(kOrder) + "}}";
}

struct Band {
  double start_hz = 0.0;
  double stop_hz = 0.0;
};

std::string sweep_body(const std::string& rom, const Band& band,
                       const std::vector<std::pair<Index, Index>>& entries,
                       const std::string& id) {
  std::string body = "{\"v\":1,\"op\":\"sweep\",\"id\":" + obs::json_string(id) +
                     ",\"rom\":" + obs::json_string(rom) +
                     ",\"grid\":{\"start_hz\":" + obs::json_number(band.start_hz) +
                     ",\"stop_hz\":" + obs::json_number(band.stop_hz) +
                     ",\"points\":" + std::to_string(kSweepPoints) +
                     ",\"spacing\":\"log\"}";
  if (!entries.empty()) {
    body += ",\"entries\":[";
    for (size_t e = 0; e < entries.size(); ++e)
      body += (e ? ",[" : "[") + std::to_string(entries[e].first) + "," +
              std::to_string(entries[e].second) + "]";
    body += "]";
  }
  return body + "}";
}

enum class Kind { kSweepFull, kSweepEntries, kReduce };

struct Request {
  double at = 0.0;  ///< scheduled send, seconds after the rung start
  Kind kind = Kind::kSweepFull;
  int band = 0;
  std::vector<std::pair<Index, Index>> entries;
  std::uint64_t variant = 0;  ///< reduce: package variant id
  bool sample = false;        ///< keep the reply for the full check
  std::string body;
  // Outcome.
  double send = 0.0, done = 0.0;  ///< seconds after the rung start
  bool ok = false;
  std::string reply;  ///< kept for samples and writes
};

/// One segment of the ladder at one offered rate, or (after merge_rungs)
/// all segments of that rate.
struct Rung {
  size_t rate_index = 0;
  double rate = 0.0;
  double duration = 0.0;
  std::vector<Request> requests;
  // Results. sweep_ms holds the full-matrix sweeps: with the two shapes
  // half and half, a median over both would sit in the gap between them.
  std::vector<double> sweep_ms, entries_ms, reduce_ms, late_ms;
  double drain_ms = 0.0;
  std::int64_t failures = 0;
  double p99() const { return quantile(sweep_ms, 0.99); }
  bool passes() const {
    return failures == 0 && !sweep_ms.empty() && p99() <= kSloP99Ms &&
           drain_ms <= kSloP99Ms;
  }
};

/// Schedule of one segment: arrivals from the fixed stream `arrivals`,
/// request contents from the seeded `rng`. Bodies referencing the warm
/// ROM are filled in once its key is known.
std::vector<Request> make_schedule(std::mt19937_64& arrivals, std::mt19937_64& rng,
                                   double rate, double duration,
                                   std::uint64_t* variant) {
  std::vector<Request> out;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(arrivals); t < duration; t += gap(arrivals)) {
    Request r;
    r.at = t;
    const size_t i = out.size();
    if (i % kWriteEvery == kWriteEvery - 1) {
      r.kind = Kind::kReduce;
      r.variant = ++*variant;
    } else {
      r.kind = (i - i / kWriteEvery) % 2 == 0 ? Kind::kSweepFull : Kind::kSweepEntries;
      r.band = static_cast<int>(u(rng) * kBands) % kBands;
      if (r.kind == Kind::kSweepEntries)
        for (int e = 0; e < 3; ++e)
          r.entries.emplace_back(static_cast<Index>(u(rng) * kPorts) % kPorts,
                                 static_cast<Index>(u(rng) * kPorts) % kPorts);
      r.sample = u(rng) < kSampleShare;
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Everything the set-up builds: inputs, the library's copy of the warm
/// ROM, and the started daemon with its connections.
struct Service {
  std::string base_text;
  std::string rom;  ///< registry key of the warm ROM
  std::vector<Band> bands;
  std::vector<Rung> rungs;  ///< segments, in kPlan order
  ReduceResult library_rom;
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<serve::HttpClient> clients;
};

void build_service(RunContext& ctx, Service& svc, double ladder_seconds) {
  const std::uint64_t seed = ctx.config.seed;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  svc.bands.clear();
  for (int b = 0; b < kBands; ++b) {
    // One decade starting between 100 MHz and 1 GHz.
    const double lo = 1e8 * std::pow(10.0, u(rng));
    svc.bands.push_back({lo, 10.0 * lo});
  }
  std::uint64_t variant = 0;
  std::mt19937_64 arrivals(0x9e3779b97f4a7c15u);
  auto weight = [](size_t k) { return k == kReferenceRung ? kReferenceWeight : 1.0; };
  double total_weight = 0.0;
  for (size_t k : kPlan) total_weight += weight(k);
  svc.rungs.clear();
  for (size_t k : kPlan) {
    Rung rung;
    rung.rate_index = k;
    rung.rate = kLadder[k];
    rung.duration = ladder_seconds * weight(k) / total_weight;
    rung.requests = make_schedule(arrivals, rng, rung.rate, rung.duration, &variant);
    svc.rungs.push_back(std::move(rung));
  }
  for (Rung& rung : svc.rungs)
    for (Request& r : rung.requests)
      if (r.kind == Kind::kReduce)
        r.body = reduce_body(package_text(seed, r.variant),
                             "w" + std::to_string(r.variant));

  svc.base_text = package_text(seed, 0);
  ReduceOptions opt;
  opt.order = kOrder;
  svc.library_rom = reduce(parse_netlist(svc.base_text), opt);
  if (!svc.library_rom.ok()) throw std::runtime_error("library reduce of the package failed");

  serve::DaemonOptions dopt;
  dopt.http_port = 0;
  dopt.http_workers = ctx.threads;
  // Room for the warm ROM and about two variants: writes evict.
  dopt.registry_capacity_bytes =
      static_cast<std::int64_t>(3.5 * static_cast<double>(
                                          serve::macro_model_bytes(svc.library_rom.model)));
  svc.clients.clear();
  svc.daemon = std::make_unique<serve::Daemon>(dopt);
  svc.daemon->start();
  for (int c = 0; c < ctx.threads; ++c)
    svc.clients.push_back(serve::HttpClient::connect_tcp(svc.daemon->port()));

  const std::string warm = svc.clients[0].post_api(reduce_body(svc.base_text, "warm"));
  const obs::JsonValue reply = obs::json_parse(warm);
  const obs::JsonValue* ok = reply.find("ok");
  if (ok == nullptr || !ok->as_bool()) throw std::runtime_error("warm reduce failed: " + warm.substr(0, 200));
  const obs::JsonValue& result = *reply.find("result");
  svc.rom = result.find("rom")->as_string();
  ctx.checks.expect(result.find("order")->as_number() == kOrder, "warm ROM order");
  ctx.checks.expect(result.find("ports")->as_number() == kPorts, "warm ROM ports");

  for (Rung& rung : svc.rungs)
    for (size_t i = 0; i < rung.requests.size(); ++i) {
      Request& r = rung.requests[i];
      if (r.kind != Kind::kReduce)
        r.body = sweep_body(svc.rom, svc.bands[static_cast<size_t>(r.band)],
                            r.entries, "s" + std::to_string(i));
    }
  // Warm each band once on every connection.
  for (serve::HttpClient& c : svc.clients)
    for (const Band& band : svc.bands)
      ctx.checks.expect(c.post_api(sweep_body(svc.rom, band, {}, "warm")).rfind(kOkPrefix, 0) == 0,
                        "warm sweep");
}

/// Replays one rung open-loop. `traced` records an op span per request
/// with its generator wait and HTTP round trip as children.
void run_rung(Service& svc, Rung& rung, bool traced, std::int64_t op_base) {
  std::atomic<size_t> next{0};
  const double t0 = now_s() + 0.02;
  auto worker = [&](serve::HttpClient& client) {
    for (;;) {
      const size_t i = next++;
      if (i >= rung.requests.size()) return;
      Request& r = rung.requests[i];
      const double due = t0 + r.at;
      const double wait = due - now_s();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      const double send = now_s();
      std::string reply;
      try {
        reply = client.post_api(r.body);
      } catch (const std::exception& e) {
        reply = e.what();
      }
      const double done = now_s();
      r.send = send - t0;
      r.done = done - t0;
      r.ok = reply.rfind(kOkPrefix, 0) == 0;
      if (r.sample || r.kind == Kind::kReduce || !r.ok) r.reply = std::move(reply);
      if (traced) {
        Tracer& t = Tracer::instance();
        const std::int64_t op = op_base + static_cast<std::int64_t>(i);
        const int span = t.add(r.kind == Kind::kReduce ? "op.reduce" : "op.sweep",
                               std::min(due, send), done, op);
        t.add("serve.gen_wait", std::min(due, send), send, op, span);
        t.add("serve.http", send, done, op, span);
      }
    }
  };
  std::vector<std::thread> threads;
  for (serve::HttpClient& c : svc.clients) threads.emplace_back(worker, std::ref(c));
  for (std::thread& t : threads) t.join();

  double last_done = 0.0;
  for (const Request& r : rung.requests) {
    const double latency_ms = 1e3 * (r.done - r.at);
    (r.kind == Kind::kReduce         ? rung.reduce_ms
     : r.kind == Kind::kSweepEntries ? rung.entries_ms
                                     : rung.sweep_ms)
        .push_back(latency_ms);
    rung.late_ms.push_back(1e3 * std::max(0.0, r.send - r.at));
    if (!r.ok) ++rung.failures;
    last_done = std::max(last_done, r.done);
  }
  rung.drain_ms = 1e3 * std::max(0.0, last_done - rung.duration);
}

/// Full checks of kept replies: writes built fresh ROMs of the right
/// shape, sampled sweeps equal a library sweep of the same ROM.
void check_replies(RunContext& ctx, const Service& svc, const Rung& rung) {
  for (const Request& r : rung.requests) {
    ctx.checks.expect(r.ok, "daemon reply ok:true: " + r.reply.substr(0, 200));
    if (!r.ok || r.reply.empty()) continue;
    const obs::JsonValue reply = obs::json_parse(r.reply);
    const obs::JsonValue& result = *reply.find("result");
    if (r.kind == Kind::kReduce) {
      ctx.checks.expect(!result.find("cached")->as_bool(), "write missed the registry");
      ctx.checks.expect(result.find("order")->as_number() == kOrder, "write ROM order");
      ctx.checks.expect(result.find("ports")->as_number() == kPorts, "write ROM ports");
      continue;
    }
    Vec hz;
    for (const obs::JsonValue& f : result.find("frequencies_hz")->as_array())
      hz.push_back(f.as_number());
    ctx.checks.expect(static_cast<Index>(hz.size()) == kSweepPoints, "sweep points");
    const SweepResult lib = sweep(svc.library_rom.model, hz);
    const auto& values = result.find("values")->as_array();
    double worst = 0.0;
    auto cmp = [&](const obs::JsonValue& v, Complex want) {
      const auto& pair = v.as_array();
      const Complex got(pair[0].as_number(), pair[1].as_number());
      worst = std::max(worst, std::abs(got - want) / std::max(std::abs(want), 1e-300));
    };
    for (size_t k = 0; k < hz.size() && k < values.size(); ++k) {
      const auto& point = values[k].as_array();
      if (r.kind == Kind::kSweepEntries) {
        for (size_t e = 0; e < r.entries.size(); ++e)
          cmp(point[e], lib.values[k](r.entries[e].first, r.entries[e].second));
      } else {
        for (Index i = 0; i < kPorts; ++i) {
          const auto& row = point[static_cast<size_t>(i)].as_array();
          for (Index j = 0; j < kPorts; ++j) cmp(row[static_cast<size_t>(j)], lib.values[k](i, j));
        }
      }
    }
    ctx.checks.expect(worst <= kReplyTol, "sampled sweep reply equals library sweep (" +
                                              std::to_string(worst) + ")");
  }
}

/// Merges the segments of each rate into one Rung per ladder rate, in
/// ascending rate order (requests stay with the segments).
std::vector<Rung> merge_rungs(const std::vector<Rung>& segments) {
  std::vector<Rung> out(std::size(kLadder));
  for (size_t k = 0; k < out.size(); ++k) {
    out[k].rate_index = k;
    out[k].rate = kLadder[k];
  }
  for (const Rung& seg : segments) {
    Rung& r = out[seg.rate_index];
    r.duration += seg.duration;
    r.sweep_ms.insert(r.sweep_ms.end(), seg.sweep_ms.begin(), seg.sweep_ms.end());
    r.entries_ms.insert(r.entries_ms.end(), seg.entries_ms.begin(), seg.entries_ms.end());
    r.reduce_ms.insert(r.reduce_ms.end(), seg.reduce_ms.begin(), seg.reduce_ms.end());
    r.late_ms.insert(r.late_ms.end(), seg.late_ms.begin(), seg.late_ms.end());
    r.drain_ms = std::max(r.drain_ms, seg.drain_ms);
    r.failures += seg.failures;
  }
  return out;
}

/// Interpolated offered rate at which sweep p99 crosses the limit: the
/// top rung of the passing prefix, moved toward the first failing rung by
/// log-linear interpolation of p99.
double max_rps_slo(const std::vector<Rung>& rungs) {
  size_t pass = 0;
  while (pass < rungs.size() && rungs[pass].passes()) ++pass;
  if (pass == 0) return 0.0;
  if (pass == rungs.size()) return rungs.back().rate;
  const Rung& lo = rungs[pass - 1];
  const Rung& hi = rungs[pass];
  const double a = std::log(lo.p99()), b = std::log(std::max(hi.p99(), lo.p99() * 1.0001));
  const double frac = std::clamp((std::log(kSloP99Ms) - a) / (b - a), 0.0, 1.0);
  return lo.rate + frac * (hi.rate - lo.rate);
}

}  // namespace

void run_serve_mixed(RunContext& ctx) {
  const RunConfig& cfg = ctx.config;
  const bool traced = cfg.trace;
  Tracer& tracer = Tracer::instance();
  const double ladder_seconds = 0.9 * cfg.seconds;

  // --- Set-up, three times: inputs, library ROM, daemon, warm ROM. ---
  Service svc;
  std::vector<double> setups;
  for (int k = 0; k < 3; ++k) {
    if (svc.daemon) svc.daemon->stop();
    svc.clients.clear();
    svc.daemon.reset();
    FactorCache::global().clear();
    const double t0 = now_s();
    build_service(ctx, svc, ladder_seconds);
    setups.push_back(now_s() - t0);
  }
  ctx.end_to_end.set("setup_s", median(setups), "s");
  serve::Daemon& daemon = *svc.daemon;

  // --- Netlist text → ROM through the library, cold cache: reps run
  // before every ladder segment, while the daemon is idle. ---
  ReduceOptions opt;
  opt.order = kOrder;
  std::vector<double> rom_s, parse_s, mna_s, reduce_s;
  MnaSystem sys;
  ReduceResult rom;
  auto rom_reps = [&](double seconds) {
    const double until = now_s() + seconds;
    for (int k = 0; k == 0 || now_s() < until; ++k) {
      FactorCache::global().clear();
      const std::int64_t op = 100000 + static_cast<std::int64_t>(rom_s.size());
      Netlist netlist;  // outlives the op span: freeing it is not on the path
      Scope whole("op.rom", op);
      {
        Scope s("circuit.parse", op);
        netlist = parse_netlist(svc.base_text);
        parse_s.push_back(s.elapsed());
      }
      {
        Scope s("circuit.mna", op);
        sys = build_mna(netlist);
        mna_s.push_back(s.elapsed());
      }
      {
        Scope s("mor.reduce", op);
        rom = reduce(sys, opt);
        reduce_s.push_back(s.elapsed());
      }
      rom_s.push_back(whole.elapsed());
      ctx.checks.expect(rom.ok() && rom.model.order() == kOrder &&
                            rom.model.port_count() == kPorts,
                        "library package ROM");
    }
  };

  // --- The open-loop ladder. A traced run first replays the reference
  // rung unrecorded, for obs.trace_overhead. ---
  std::vector<Rung> untraced;
  if (traced) {
    for (const Rung& seg : svc.rungs)
      if (seg.rate_index == kReferenceRung) {
        untraced.push_back(seg);
        for (Request& r : untraced.back().requests)
          if (r.kind == Kind::kReduce)
            r.body = reduce_body(package_text(cfg.seed, r.variant + 1000000), "u");
        run_rung(svc, untraced.back(), false, 0);
      }
  }
  const serve::RegistryStats reg0 = daemon.registry().stats();
  const serve::BatchStats batch0 = daemon.batcher().stats();
  const FactorCacheStats cache0 = FactorCache::global().stats();
  tracer.set_enabled(traced);
  for (size_t k = 0; k < svc.rungs.size(); ++k) {
    rom_reps(0.05 * cfg.seconds / static_cast<double>(svc.rungs.size()));
    run_rung(svc, svc.rungs[k], traced, static_cast<std::int64_t>(k) << 20);
    std::cerr << "pipebench: rung " << svc.rungs[k].rate << "/s: "
              << svc.rungs[k].requests.size() << " requests, sweep p50 "
              << median(svc.rungs[k].sweep_ms) << " ms p99 " << svc.rungs[k].p99()
              << " ms, drain " << svc.rungs[k].drain_ms << " ms, failures "
              << svc.rungs[k].failures << "\n";
  }
  tracer.set_enabled(false);
  const serve::RegistryStats reg1 = daemon.registry().stats();
  const serve::BatchStats batch1 = daemon.batcher().stats();
  const FactorCacheStats cache1 = FactorCache::global().stats();

  const std::vector<Rung> ladder_rates = merge_rungs(svc.rungs);
  std::string ladder = "[";
  for (const Rung& rung : ladder_rates) {
    using obs::json_number;
    ladder += (ladder.size() > 1 ? "," : "") + std::string("{\"rate\":") +
              json_number(rung.rate) + ",\"seconds\":" + json_number(rung.duration) +
              ",\"full_sweeps\":" + std::to_string(rung.sweep_ms.size()) +
              ",\"sweep_p50_ms\":" + json_number(median(rung.sweep_ms)) +
              ",\"sweep_p99_ms\":" + json_number(rung.p99()) +
              ",\"entries_sweeps\":" + std::to_string(rung.entries_ms.size()) +
              ",\"entries_p50_ms\":" + json_number(median(rung.entries_ms)) +
              ",\"entries_p99_ms\":" + json_number(quantile(rung.entries_ms, 0.99)) +
              ",\"writes\":" + std::to_string(rung.reduce_ms.size()) +
              ",\"reduce_p50_ms\":" + json_number(median(rung.reduce_ms)) +
              ",\"gen_late_p99_ms\":" + json_number(quantile(rung.late_ms, 0.99)) +
              ",\"drain_ms\":" + json_number(rung.drain_ms) +
              ",\"failures\":" + std::to_string(rung.failures) +
              ",\"meets_slo\":" + (rung.passes() ? "true" : "false") + "}";
  }
  ctx.details.emplace_back("ladder", ladder + "]");
  ctx.details.emplace_back("slo_sweep_p99_ms", obs::json_number(kSloP99Ms));
  ctx.details.emplace_back("reference_rate", obs::json_number(kLadder[kReferenceRung]));
  ctx.details.emplace_back("rom_reps", std::to_string(rom_s.size()));

  const Rung& ref = ladder_rates[kReferenceRung];
  ctx.end_to_end.set("rom_s", median(rom_s), "s");
  ctx.checks.expect(rom.report.moment0_residual <= kMoment0Tol,
                    "moment0_residual " + std::to_string(rom.report.moment0_residual));
  ctx.end_to_end.set("sweep_p50_ms", median(ref.sweep_ms), "ms");
  ctx.end_to_end.set("sweep_p99_ms", ref.p99(), "ms");
  ctx.end_to_end.set("reduce_p50_ms", median(ref.reduce_ms), "ms");
  ctx.end_to_end.set("max_rps_slo", max_rps_slo(ladder_rates), "1/s");
  ctx.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");

  // --- Output checks (not timed). ---
  for (const Rung& rung : svc.rungs) check_replies(ctx, svc, rung);
  ctx.checks.expect(reg1.evictions > reg0.evictions, "writes evicted ROMs");
  ctx.checks.expect(ref.reduce_ms.size() > 0, "reference rung carried writes");
  double rel_err = 0.0;
  for (double hz : log_frequency_grid(kValidationLoHz, kValidationHiHz, kValidationPoints)) {
    const CMat z = rom.model.eval(jw(hz));
    ctx.checks.expect(asymmetry(z) <= kSymmetryTol, "Zn symmetric");
    rel_err = std::max(rel_err, rel_diff(z, exact_z(sys, hz)));
  }
  ctx.checks.expect(rel_err <= kRelErrTol, "rom_rel_err " + std::to_string(rel_err));
  ctx.end_to_end.set("rom_rel_err", rel_err, "ratio");

  if (!traced) return;

  // --- Per-layer numbers (traced run). ---
  Metrics& m = ctx.per_layer;
  const SympvlReport& rep = rom.report;
  m.set("circuit.parse_s", median(parse_s), "s");
  m.set("circuit.mna_s", median(mna_s), "s");
  m.set("circuit.netlist_bytes", static_cast<double>(svc.base_text.size()), "bytes");
  m.set("linalg.cache_hits", static_cast<double>(cache1.hits - cache0.hits), "count");
  m.set("linalg.cache_misses", static_cast<double>(cache1.misses - cache0.misses), "count");
  m.set("mor.factor_s", rep.factor_seconds, "s");
  m.set("mor.start_block_s", rep.start_block_seconds, "s");
  m.set("mor.lanczos_s", rep.lanczos_seconds, "s");
  m.set("mor.lanczos_steps", static_cast<double>(rep.lanczos_step_stats.count), "count");
  m.set("mor.lanczos_step_p50_ms", 1e3 * rep.lanczos_step_stats.p50, "ms");
  m.set("mor.krylov_peak_bytes", static_cast<double>(rep.krylov_peak_bytes), "bytes");
  m.set("mor.unaccounted_s",
        reduce_s.back() - rep.factor_seconds - rep.start_block_seconds - rep.lanczos_seconds,
        "s");
  m.set("serve.registry.hits", static_cast<double>(reg1.hits - reg0.hits), "count");
  m.set("serve.registry.misses", static_cast<double>(reg1.misses - reg0.misses), "count");
  m.set("serve.registry.evictions", static_cast<double>(reg1.evictions - reg0.evictions), "count");
  m.set("serve.registry.single_flight_shared",
        static_cast<double>(reg1.single_flight_shared - reg0.single_flight_shared), "count");
  m.set("serve.batch.runs", static_cast<double>(batch1.runs - batch0.runs), "count");
  m.set("serve.batch.coalesced", static_cast<double>(batch1.coalesced - batch0.coalesced), "count");
  m.set("serve.batch.merged_points",
        static_cast<double>(batch1.merged_points - batch0.merged_points), "count");
  m.set("serve.batch.max_batch", static_cast<double>(batch1.max_batch), "count");
  m.set("serve.gen_late_ms", quantile(ref.late_ms, 0.99), "ms");
  m.set("obs.trace_overhead",
        median(ref.sweep_ms) / median(merge_rungs(untraced)[kReferenceRung].sweep_ms), "ratio");

  // In-process probes, one request shape at a time, no concurrency.
  tracer.set_enabled(true);
  const Vec grid = log_frequency_grid(svc.bands[0].start_hz, svc.bands[0].stop_hz, kSweepPoints);
  // Library sweep, in-process handle() and HTTP round trip, interleaved
  // so a drift of the host hits all three alike.
  struct Shape {
    const char* suffix;
    std::vector<std::pair<Index, Index>> entries;
  };
  const Shape shapes[] = {{"", {}}, {".entries", {{0, 0}, {0, 8}, {3, 12}}}};
  std::vector<double> sweep_all;
  for (const Shape& shape : shapes) {
    const std::string body = sweep_body(svc.rom, svc.bands[0], shape.entries, "probe");
    std::vector<double> sweep_t, handle_t, rtt_t;
    std::string reply;
    for (int k = 0; k < 15; ++k) {
      double t0 = now_s();
      {
        Scope s("sim.sweep");
        ctx.checks.expect(sweep(rom.model, grid).all_ok(), "library sweep");
      }
      sweep_t.push_back(1e3 * (now_s() - t0));
      t0 = now_s();
      {
        Scope s("serve.handle");
        reply = daemon.handle(body);
      }
      handle_t.push_back(1e3 * (now_s() - t0));
      ctx.checks.expect(reply.rfind(kOkPrefix, 0) == 0, "probe handle() ok:true");
      t0 = now_s();
      {
        Scope s("serve.http");
        reply = svc.clients[0].post_api(body);
      }
      rtt_t.push_back(1e3 * (now_s() - t0));
      ctx.checks.expect(reply.rfind(kOkPrefix, 0) == 0, "probe reply ok:true");
    }
    const std::string sfx = shape.suffix;
    m.set("serve.handle_ms" + sfx, median(handle_t), "ms");
    m.set("serve.encode_ms" + sfx, median(handle_t) - median(sweep_t), "ms");
    m.set("serve.transport_ms" + sfx, median(rtt_t) - median(handle_t), "ms");
    m.set("serve.response_bytes" + sfx, static_cast<double>(reply.size()), "bytes");
    sweep_all.insert(sweep_all.end(), sweep_t.begin(), sweep_t.end());
  }
  const double sweep_ms = median(sweep_all);
  m.set("sim.sweep_ms", sweep_ms, "ms");
  linalg_layers(ctx, sys, rep.s0_used, opt.ordering);
  set_num_threads(1);
  std::vector<double> serial_ms;
  for (int k = 0; k < 7; ++k) {
    const double t0 = now_s();
    {
      Scope s("sim.sweep");
      (void)sweep(rom.model, grid);
    }
    serial_ms.push_back(1e3 * (now_s() - t0));
  }
  set_num_threads(ctx.threads);
  tracer.set_enabled(false);
  m.set("parallel.speedup", median(serial_ms) / sweep_ms, "ratio");

  daemon.stop();
}

}  // namespace pipebench
