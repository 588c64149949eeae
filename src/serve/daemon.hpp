// The serving daemon: protocol handler + warm-ROM registry + sweep
// batcher behind the minimal HTTP server.
//
// Layering (each seam is testable without the one above it):
//
//   handle(body)        — one JSON request in, one JSON response out.
//                         No sockets involved; the protocol golden tests
//                         and the in-process bench drive this directly.
//   handle_http(req)    — routing: POST /api/v1 → handle(), GET /healthz,
//                         GET /metrics → obs::export_prometheus.
//   start()/stop()      — the HttpServer (loopback TCP and/or unix
//                         socket) dispatching handle_http on its workers.
//
// Fault containment is per request: every request passes the
// "serve.request" fault site (indexed by its arrival sequence number),
// and EVERYTHING a request does — parse, reduce, sweep — runs under a
// catch-all that renders a coded error response. A poisoned request
// answers {"ok":false,...}; the daemon keeps serving.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/batcher.hpp"
#include "serve/http.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace sympvl::serve {

struct DaemonOptions {
  /// TCP port on 127.0.0.1 (0 = kernel-assigned; -1 = TCP off).
  int http_port = 0;
  /// Unix-domain socket path ("" = off). At least one listener is
  /// required by start(); handle() works with neither.
  std::string unix_path;
  /// Warm-ROM registry capacity (LRU evicts beyond this).
  std::int64_t registry_capacity_bytes = std::int64_t(256) << 20;
  /// HTTP connection worker threads.
  Index http_workers = 4;
  /// Sweep-batching window in microseconds (0 disables coalescing).
  int batch_window_us = 200;
  /// Max sweep requests coalesced into one batch.
  Index batch_max = 64;
};

/// Cumulative request counters (monotonic since construction).
struct DaemonStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t reduce = 0;
  std::uint64_t sweep = 0;
  std::uint64_t evaluate = 0;
  std::uint64_t status = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts the socket listeners. Throws Error(kIo/kInvalidArgument)
  /// when no listener can be established.
  void start();
  void stop();

  /// Bound TCP port (after start(); 0 when TCP is disabled).
  int port() const;

  /// The protocol seam: handles one request body, returns the response
  /// JSON. Never throws — every failure becomes a coded error response.
  std::string handle(const std::string& body);

  /// HTTP routing over handle(): POST /api/v1, GET /healthz,
  /// GET /metrics. Unknown targets get 404 with a JSON error body.
  HttpResponse handle_http(const HttpRequest& request);

  RomRegistry& registry() { return registry_; }
  const SweepBatcher& batcher() const { return batcher_; }
  DaemonStats stats() const;

 private:
  std::string dispatch(const Request& request);
  std::string handle_reduce(const Request& request);
  std::string handle_sweep(const Request& request);
  std::string handle_evaluate(const Request& request);
  std::string handle_status(const Request& request);
  /// Resolves the request's model source: registry lookup for "rom",
  /// acquire-or-build for an inline netlist. Throws coded errors.
  RomRegistry::EntryPtr resolve_model(const Request& request, bool* was_hit,
                                      bool* was_shared);

  /// The HTTP server's settings; its body cap also sets the element
  /// budget of inline netlists, also when handle() is called directly.
  HttpServer::Config http_;
  RomRegistry registry_;
  SweepBatcher batcher_;
  std::unique_ptr<HttpServer> server_;
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> seq_{0};  ///< arrival order, fault-site index
  mutable std::mutex stats_mutex_;
  DaemonStats stats_;
};

}  // namespace sympvl::serve
