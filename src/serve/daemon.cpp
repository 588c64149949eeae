#include "serve/daemon.hpp"

#include <sstream>

#include "circuit/parser.hpp"
#include "fault.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/prom_export.hpp"

namespace sympvl::serve {

namespace {

/// [re, im] with NaN/Inf mapped to null (failed sweep points carry NaN
/// matrices; "null" keeps the response parseable).
void complex_json(std::ostream& out, Complex z) {
  out << "[" << obs::json_number(z.real()) << ","
      << obs::json_number(z.imag()) << "]";
}

void matrix_json(std::ostream& out, const CMat& m) {
  out << "[";
  for (Index i = 0; i < m.rows(); ++i) {
    if (i) out << ",";
    out << "[";
    for (Index j = 0; j < m.cols(); ++j) {
      if (j) out << ",";
      complex_json(out, m(i, j));
    }
    out << "]";
  }
  out << "]";
}

void report_json(std::ostream& out, const SympvlReport& r) {
  out << "{\"s0_used\":" << obs::json_number(r.s0_used)
      << ",\"achieved_order\":" << r.achieved_order
      << ",\"deflations\":" << r.deflations
      << ",\"lookahead_clusters\":" << r.lookahead_clusters
      << ",\"exhausted\":" << (r.exhausted ? "true" : "false")
      << ",\"recovered\":" << (r.recovered ? "true" : "false")
      << ",\"shift_retries\":" << r.shift_retries << "}";
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : registry_(options.registry_capacity_bytes),
      batcher_(SweepBatcher::Config{options.batch_window_us,
                                    options.batch_max}),
      started_(std::chrono::steady_clock::now()) {
  http_.port = options.http_port;
  http_.unix_path = options.unix_path;
  http_.workers = options.http_workers;
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  require(server_ == nullptr, ErrorCode::kInvalidArgument,
          "Daemon::start called twice", {.stage = "serve"});
  server_ = std::make_unique<HttpServer>(
      http_, [this](const HttpRequest& r) { return handle_http(r); });
  server_->start();
}

void Daemon::stop() {
  if (server_) {
    server_->stop();
    server_.reset();
  }
}

int Daemon::port() const { return server_ ? server_->port() : 0; }

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string Daemon::handle(const std::string& body) {
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("serve.request").add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  std::string id;
  try {
    // Per-request fault site: an armed "serve.request@k" poisons exactly
    // the k-th arrival — it gets a coded fault_injected response, and
    // every other request is untouched.
    fault::check("serve.request", static_cast<Index>(seq));
    Request request = parse_request(body);
    id = request.id;
    obs::ScopedTimer span("serve.handle");
    span.arg("op", op_name(request.op));
    const std::string result = dispatch(request);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.ok;
    }
    return ok_response(request.op, request.id, result);
  } catch (const Error& err) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
    obs::counter("serve.error").add(1);
    return error_response(err, id);
  } catch (const std::exception& ex) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
    obs::counter("serve.error").add(1);
    return error_response(ErrorCode::kUnknown, "serve.request", ex.what(), id);
  }
}

std::string Daemon::dispatch(const Request& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    switch (request.op) {
      case Op::kReduce: ++stats_.reduce; break;
      case Op::kSweep: ++stats_.sweep; break;
      case Op::kEvaluate: ++stats_.evaluate; break;
      case Op::kStatus: ++stats_.status; break;
    }
  }
  switch (request.op) {
    case Op::kReduce: return handle_reduce(request);
    case Op::kSweep: return handle_sweep(request);
    case Op::kEvaluate: return handle_evaluate(request);
    case Op::kStatus: return handle_status(request);
  }
  throw Error(ErrorCode::kUnknown, "unreachable op", {.stage = "serve"});
}

RomRegistry::EntryPtr Daemon::resolve_model(const Request& request,
                                            bool* was_hit, bool* was_shared) {
  if (!request.rom.empty()) {
    RomRegistry::EntryPtr entry = registry_.find(request.rom);
    if (!entry)
      throw Error(ErrorCode::kInvalidArgument,
                  "unknown rom \"" + request.rom +
                      "\" (never built, malformed, or evicted — re-reduce)",
                  {.stage = "serve.request"});
    if (was_hit) *was_hit = true;
    return entry;
  }
  const RomKey key = rom_key(request.netlist, request.options);
  return registry_.acquire(
      key,
      [&] {
        // The most cards a flat body of the largest accepted size can
        // hold ("R a b 1\n" is 8 bytes); subcircuit expansion past it is
        // a coded parser error, raised before expanding.
        const Netlist netlist =
            parse_netlist(request.netlist, http_.max_body_bytes / 8);
        return reduce(netlist, request.options);
      },
      was_hit, was_shared);
}

std::string Daemon::handle_reduce(const Request& request) {
  bool hit = false, shared = false;
  const RomRegistry::EntryPtr entry = resolve_model(request, &hit, &shared);
  const ReduceResult& r = entry->result;
  std::ostringstream out;
  out << "{\"rom\":" << obs::json_string(entry->key_hex)
      << ",\"cached\":" << (hit ? "true" : "false")
      << ",\"shared\":" << (shared ? "true" : "false")
      << ",\"status\":" << obs::json_string(reduction_status_name(r.status))
      << ",\"order\":" << r.model.order()
      << ",\"ports\":" << r.model.port_count()
      << ",\"bytes\":" << entry->bytes << ",\"report\":";
  report_json(out, r.report);
  out << ",\"diagnostics\":" << diagnostics_json(r.diagnostics) << "}";
  return out.str();
}

std::string Daemon::handle_sweep(const Request& request) {
  bool hit = false, shared = false;
  const RomRegistry::EntryPtr entry = resolve_model(request, &hit, &shared);
  const Index ports = entry->result.model.port_count();
  for (const auto& [i, j] : request.entries)
    if (i >= ports || j >= ports)
      throw Error(ErrorCode::kInvalidArgument,
                  "entries: [" + std::to_string(i) + "," + std::to_string(j) +
                      "] out of range for a " + std::to_string(ports) + "x" +
                      std::to_string(ports) + " model",
                  {.stage = "serve.request", .index = i});

  const SweepBatcher::Outcome outcome =
      batcher_.run(entry, request.frequencies_hz);
  const SweepResult& sw = outcome.sweep;
  if (request.strict && !sw.all_ok()) {
    const SweepPointError& first = sw.errors.front();
    throw Error(ErrorCode::kSweepPointFailed,
                std::to_string(sw.errors.size()) + " of " +
                    std::to_string(sw.size()) +
                    " sweep points failed; first: " + first.message,
                {.stage = "sweep", .index = first.index,
                 .frequency = Complex(first.frequency_hz, 0.0)});
  }

  std::ostringstream out;
  out << "{\"rom\":" << obs::json_string(entry->key_hex)
      << ",\"cached\":" << (hit ? "true" : "false")
      << ",\"batched\":" << outcome.batched
      << ",\"points\":" << sw.size()
      << ",\"failed\":" << sw.failed_count() << ",\"frequencies_hz\":[";
  for (size_t k = 0; k < sw.frequencies.size(); ++k) {
    if (k) out << ",";
    out << obs::json_number(sw.frequencies[k]);
  }
  out << "],\"values\":[";
  for (size_t k = 0; k < sw.size(); ++k) {
    if (k) out << ",";
    if (request.entries.empty()) {
      matrix_json(out, sw.values[k]);
    } else {
      out << "[";
      for (size_t e = 0; e < request.entries.size(); ++e) {
        if (e) out << ",";
        complex_json(out, sw.values[k](request.entries[e].first,
                                       request.entries[e].second));
      }
      out << "]";
    }
  }
  out << "],\"point_status\":[";
  for (size_t k = 0; k < sw.point_status.size(); ++k) {
    if (k) out << ",";
    out << (sw.ok(k) ? "\"ok\"" : "\"failed\"");
  }
  out << "],\"errors\":[";
  for (size_t k = 0; k < sw.errors.size(); ++k) {
    const SweepPointError& e = sw.errors[k];
    if (k) out << ",";
    out << "{\"index\":" << e.index << ",\"frequency_hz\":"
        << obs::json_number(e.frequency_hz)
        << ",\"code\":" << obs::json_string(error_code_name(e.code))
        << ",\"message\":" << obs::json_string(e.message) << "}";
  }
  out << "]}";
  return out.str();
}

std::string Daemon::handle_evaluate(const Request& request) {
  bool hit = false, shared = false;
  const RomRegistry::EntryPtr entry = resolve_model(request, &hit, &shared);
  const CMat z = entry->result.model.eval(request.s);
  std::ostringstream out;
  out << "{\"rom\":" << obs::json_string(entry->key_hex)
      << ",\"cached\":" << (hit ? "true" : "false")
      << ",\"order\":" << entry->result.model.order()
      << ",\"ports\":" << entry->result.model.port_count() << ",\"s\":";
  complex_json(out, request.s);
  out << ",\"value\":";
  matrix_json(out, z);
  out << "}";
  return out.str();
}

std::string Daemon::handle_status(const Request&) {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  const DaemonStats d = stats();
  const RegistryStats reg = registry_.stats();
  const BatchStats bat = batcher_.stats();
  std::ostringstream out;
  out << "{\"protocol_version\":" << kProtocolVersion
      << ",\"uptime_s\":" << obs::json_number(uptime_s)
      << ",\"requests\":{\"total\":" << d.requests << ",\"ok\":" << d.ok
      << ",\"errors\":" << d.errors << ",\"reduce\":" << d.reduce
      << ",\"sweep\":" << d.sweep << ",\"evaluate\":" << d.evaluate
      << ",\"status\":" << d.status << "}"
      << ",\"registry\":{\"entries\":" << reg.entries
      << ",\"resident_bytes\":" << reg.resident_bytes
      << ",\"capacity_bytes\":" << reg.capacity_bytes
      << ",\"hits\":" << reg.hits << ",\"misses\":" << reg.misses
      << ",\"evictions\":" << reg.evictions
      << ",\"single_flight_shared\":" << reg.single_flight_shared << "}"
      << ",\"batch\":{\"runs\":" << bat.runs
      << ",\"requests\":" << bat.requests
      << ",\"coalesced\":" << bat.coalesced
      << ",\"merged_points\":" << bat.merged_points
      << ",\"max_batch\":" << bat.max_batch << "}"
      << ",\"connections\":" << (server_ ? server_->connections() : 0)
      << "}";
  return out.str();
}

HttpResponse Daemon::handle_http(const HttpRequest& request) {
  if (request.target == "/api/v1") {
    if (request.method != "POST")
      return {405, "application/json",
              error_response(ErrorCode::kInvalidArgument, "serve.http",
                             "use POST for /api/v1", "") +
                  "\n"};
    HttpResponse response;
    response.body = handle(request.body) + "\n";
    return response;
  }
  if (request.target == "/healthz") {
    if (request.method != "GET")
      return {405, "text/plain", "use GET\n"};
    return {200, "application/json", "{\"ok\":true}\n"};
  }
  if (request.target == "/metrics") {
    if (request.method != "GET")
      return {405, "text/plain", "use GET\n"};
    std::ostringstream out;
    obs::export_prometheus(out);
    return {200, "text/plain; version=0.0.4", out.str()};
  }
  return {404, "application/json",
          error_response(ErrorCode::kInvalidArgument, "serve.http",
                         "unknown target " + request.target +
                             " (POST /api/v1, GET /healthz, GET /metrics)",
                         "") +
              "\n"};
}

}  // namespace sympvl::serve
