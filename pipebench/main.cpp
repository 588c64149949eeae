// pipebench — the end-to-end pipeline benchmark.
//
//   pipebench --workload <grid_reduce|manyport_reduce|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a few progress lines and, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
// The full result (both metric sets, run identity, failed checks) and,
// for traced runs, a Chrome trace of every recorded span are written to
// --out-dir. Exit status is non-zero when any output check failed or the
// build/environment guard refuses the run.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "harness.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"

namespace pipebench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"rom_s", "s"},
    {"rom_rel_err", "ratio"}, {"peak_rss_mb", "MiB"},
    {"sweep_p50_ms", "ms"},   {"sweep_p99_ms", "ms"},
    {"reduce_p50_ms", "ms"},  {"max_rps_slo", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"circuit.parse_s", "s"},
    {"circuit.mna_s", "s"},
    {"circuit.netlist_bytes", "bytes"},
    {"linalg.ordering_s", "s"},
    {"linalg.symbolic_s", "s"},
    {"linalg.numeric_s", "s"},
    {"linalg.solve1_s", "s"},
    {"linalg.solvep_s", "s"},
    {"linalg.nnz_l", "count"},
    {"linalg.flops", "count"},
    {"linalg.supernodes", "count"},
    {"linalg.factor_bytes", "bytes"},
    {"linalg.cache_hits", "count"},
    {"linalg.cache_misses", "count"},
    {"mor.factor_s", "s"},
    {"mor.start_block_s", "s"},
    {"mor.lanczos_s", "s"},
    {"mor.lanczos_steps", "count"},
    {"mor.lanczos_step_p50_ms", "ms"},
    {"mor.krylov_peak_bytes", "bytes"},
    {"mor.shard.partition_s", "s"},
    {"mor.shard.reduce_s", "s"},
    {"mor.shard.stitch_s", "s"},
    {"mor.shard.count", "count"},
    {"mor.shard.stitch_bytes", "bytes"},
    {"mor.unaccounted_s", "s"},
    {"sim.sweep_ms", "ms"},
    {"serve.handle_ms", "ms"},
    {"serve.handle_ms.entries", "ms"},
    {"serve.encode_ms", "ms"},
    {"serve.encode_ms.entries", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.transport_ms.entries", "ms"},
    {"serve.response_bytes", "bytes"},
    {"serve.response_bytes.entries", "bytes"},
    {"serve.registry.hits", "count"},
    {"serve.registry.misses", "count"},
    {"serve.registry.evictions", "count"},
    {"serve.registry.single_flight_shared", "count"},
    {"serve.batch.runs", "count"},
    {"serve.batch.coalesced", "count"},
    {"serve.batch.merged_points", "count"},
    {"serve.batch.max_batch", "count"},
    {"serve.gen_late_ms", "ms"},
    {"parallel.threads", "count"},
    {"parallel.speedup", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"coverage", "ratio"},
    {"error_rate", "ratio"},
};

/// Coverage below this means the benchmark leaves time unattributed.
constexpr double kCoverageFloor = 0.95;

int usage(const char* why) {
  std::cerr << "pipebench: " << why
            << "\nusage: pipebench --workload <grid_reduce|manyport_reduce|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  return 2;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += sympvl::obs::json_string(m.name) + ":{\"value\":" +
           sympvl::obs::json_number(m.value) +
           ",\"unit\":" + sympvl::obs::json_string(m.unit) + "}";
  }
  return out + "}";
}

/// Orders `got` by `specs` and reports metrics a workload never set.
std::vector<Metric> complete(const Metrics& got, const MetricSpec* begin,
                             const MetricSpec* end,
                             std::vector<std::string>* missing) {
  std::vector<Metric> out;
  for (const MetricSpec* s = begin; s != end; ++s) {
    bool found = false;
    for (const Metric& m : got.all())
      if (m.name == s->name) {
        out.push_back({m.name, m.value, s->unit});
        found = true;
      }
    if (!found) {
      out.push_back({s->name, 0.0, s->unit});
      missing->push_back(s->name);
    }
  }
  return out;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  RunConfig cfg;
  cfg.out_dir = ".";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !(cfg.seconds > 0.0))
    return usage("--workload, --seed and a positive --seconds are required");

  void (*run)(RunContext&) = nullptr;
  if (cfg.workload == "grid_reduce") run = run_grid_reduce;
  if (cfg.workload == "manyport_reduce") run = run_manyport_reduce;
  if (cfg.workload == "serve_mixed") run = run_serve_mixed;
  if (run == nullptr) return usage(("unknown workload " + cfg.workload).c_str());

  if (const std::string problem = guard_problem(); !problem.empty()) {
    std::cerr << "pipebench: refusing to report numbers: " << problem << "\n";
    return 3;
  }

  RunContext ctx;
  ctx.config = cfg;
  ctx.threads = static_cast<int>(sympvl::num_threads());
  std::cerr << "pipebench: " << cfg.workload << " seed " << cfg.seed
            << " seconds " << cfg.seconds << " trace " << cfg.trace
            << " threads " << ctx.threads << "\n";

  try {
    run(ctx);
  } catch (const std::exception& e) {
    ctx.checks.expect(false, std::string("workload threw: ") + e.what());
  }

  const Tracer& tracer = Tracer::instance();
  const double coverage = tracer.coverage();
  ctx.per_layer.set("parallel.threads", ctx.threads, "count");
  ctx.per_layer.set("error_rate",
                    static_cast<double>(ctx.checks.failed()) /
                        static_cast<double>(std::max<std::int64_t>(1, ctx.checks.attempted())),
                    "ratio");
  if (cfg.trace) {
    std::string self = "{";
    for (const auto& [name, seconds] : tracer.self_seconds())
      self += (self.size() > 1 ? "," : "") + sympvl::obs::json_string(name) + ":" +
              sympvl::obs::json_number(seconds);
    ctx.details.emplace_back("self_seconds", self + "}");
    ctx.per_layer.set("coverage", coverage, "ratio");
    if (coverage < kCoverageFloor)
      std::cerr << "pipebench: DEFECT: coverage " << coverage << " < "
                << kCoverageFloor << " (time outside every layer span)\n";
  }

  std::vector<std::string> missing_e2e, missing_layer;
  const std::vector<Metric> e2e =
      complete(ctx.end_to_end, std::begin(kEndToEnd), std::end(kEndToEnd), &missing_e2e);
  const std::vector<Metric> layer =
      complete(ctx.per_layer, std::begin(kPerLayer), std::end(kPerLayer), &missing_layer);
  // Every end-to-end metric is measured on every workload; a gap is a
  // benchmark bug and fails the run.
  for (const std::string& name : missing_e2e)
    ctx.checks.expect(false, "end-to-end metric not measured: " + name);

  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0");
  std::filesystem::create_directories(cfg.out_dir);
  {
    std::string not_exercised = "[";
    for (const std::string& n : missing_layer)
      not_exercised += (not_exercised.size() > 1 ? "," : "") + sympvl::obs::json_string(n);
    std::string failures = "[";
    for (const std::string& f : ctx.checks.failures())
      failures += (failures.size() > 1 ? "," : "") + sympvl::obs::json_string(f);
    std::ofstream out(stem + ".json");
    out << "{\"workload\":" << sympvl::obs::json_string(cfg.workload)
        << ",\"seed\":" << cfg.seed << ",\"seconds\":" << cfg.seconds
        << ",\"trace\":" << (cfg.trace ? "true" : "false")
        << ",\"meta\":" << meta_json()
        << ",\"attempted\":" << ctx.checks.attempted()
        << ",\"failed\":" << ctx.checks.failed()
        << ",\"failures\":" << failures << "]"
        << ",\"end_to_end\":" << metrics_json(e2e)
        << ",\"per_layer\":" << metrics_json(layer)
        << ",\"per_layer_not_exercised\":" << not_exercised << "]";
    for (const auto& [key, value] : ctx.details)
      out << "," << sympvl::obs::json_string(key) << ":" << value;
    out << ",\"coverage_defect\":"
        << (cfg.trace && coverage < kCoverageFloor ? "true" : "false") << "}\n";
  }
  if (cfg.trace) tracer.write_chrome_trace(stem + ".trace.json");

  const bool correct = ctx.checks.failed() == 0;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << ctx.checks.attempted()
            << ",\"failed\":" << ctx.checks.failed()
            << ",\"metrics\":" << metrics_json(cfg.trace ? layer : e2e) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
