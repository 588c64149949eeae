#!/usr/bin/env python3
"""End-to-end smoke test for the sympvld serving daemon.

Spawns the daemon on an ephemeral port, drives every protocol-v1 op
plus the failure paths from an independent HTTP client (python's
stdlib, so the test can't share bugs with the C++ client), verifies
/healthz, scrapes /metrics to a file for tools/check_metrics.py, and
checks the daemon shuts down cleanly on SIGTERM.

Usage: daemon_smoke.py path/to/sympvld [--metrics-out FILE]
"""

import argparse
import http.client
import json
import re
import signal
import subprocess
import sys
import time

NETLIST = "R1 in mid 1k\nR2 mid 0 1k\nC1 mid 0 10p\n.port in in\n.end\n"

failures = []


def expansion_bomb(levels, top="X1"):
    """`levels` subcircuits, each instancing the one below ten times, over
    a one-resistor leaf: 10**levels resistors once flattened. `top` names
    the top-level instance."""
    text = ".subckt s0 a b\nR1 a b 1\n.ends\n"
    for k in range(1, levels + 1):
        text += f".subckt s{k} a b\n"
        text += "".join(f"X{i} a b s{k - 1}\n" for i in range(1, 11))
        text += ".ends\n"
    return text + f"{top} in 0 s{levels}\n.port p in\n.end\n"


def check(cond, what):
    tag = "ok" if cond else "FAIL"
    print(f"[{tag}] {what}")
    if not cond:
        failures.append(what)


def post(conn, body):
    conn.request("POST", "/api/v1", body,
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read().decode()


def api(conn, obj):
    status, body = post(conn, json.dumps(obj))
    return status, json.loads(body)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("daemon", help="path to the sympvld binary")
    ap.add_argument("--metrics-out", default="daemon_smoke_metrics.prom")
    args = ap.parse_args()

    proc = subprocess.Popen([args.daemon, "--port", "0"],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            print(f"FAIL: unexpected startup line: {line!r}")
            return 1
        port = int(m.group(1))
        print(f"daemon up on port {port}")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

        # ---- reduce: build a ROM, then hit the warm registry ----
        status, r = api(conn, {"v": 1, "op": "reduce", "id": "r1",
                               "netlist": NETLIST,
                               "options": {"order": 8}})
        check(status == 200 and r["ok"], "reduce succeeds")
        check(r.get("id") == "r1", "correlation id echoed")
        rom = r["result"]["rom"]
        check(not r["result"]["cached"], "first reduce is a miss")
        status, r = api(conn, {"v": 1, "op": "reduce",
                               "netlist": NETLIST,
                               "options": {"order": 8}})
        check(r["ok"] and r["result"]["cached"], "second reduce is a hit")
        check(r["result"]["rom"] == rom, "registry key is deterministic")

        # ---- sweep by key: grid object form + per-point status ----
        status, r = api(conn, {"v": 1, "op": "sweep", "rom": rom,
                               "grid": {"start_hz": 1e6, "stop_hz": 1e9,
                                        "points": 16, "spacing": "log"}})
        check(r["ok"] and r["result"]["points"] == 16, "sweep answers 16 points")
        check(r["result"]["failed"] == 0, "sweep has no failed points")
        check(all(s == "ok" for s in r["result"]["point_status"]),
              "every point reports ok")

        # ---- evaluate at one jw point ----
        status, r = api(conn, {"v": 1, "op": "evaluate", "rom": rom,
                               "s": [0.0, 6.283185307179586e9]})
        check(r["ok"] and len(r["result"]["value"]) == r["result"]["ports"],
              "evaluate returns a ports-square matrix")

        # ---- status: counters reflect the traffic above ----
        status, r = api(conn, {"v": 1, "op": "status"})
        st = r["result"]
        check(r["ok"] and st["requests"]["reduce"] == 2
              and st["requests"]["sweep"] == 1
              and st["requests"]["evaluate"] == 1, "status counters add up")
        check(st["registry"]["entries"] == 1 and st["registry"]["hits"] >= 1,
              "registry holds the warm ROM")

        # ---- failure paths: coded errors, daemon keeps serving ----
        status, body = post(conn, "{not json")
        err = json.loads(body)
        check(not err["ok"] and err["error"]["code"] == "invalid_argument"
              and err["error"]["stage"] == "json.parse",
              "malformed JSON gets a coded parse error")
        status, r = api(conn, {"v": 1, "op": "frobnicate"})
        check(not r["ok"] and r["error"]["code"] == "invalid_argument",
              "unknown op is rejected with a coded error")
        status, r = api(conn, {"v": 1, "op": "sweep", "rom": "no-such-rom",
                               "frequencies_hz": [1e6]})
        check(not r["ok"] and r["error"]["code"] == "invalid_argument",
              "unknown rom key is a coded error")
        status, r = api(conn, {"v": 1, "op": "status"})
        check(r["ok"], "daemon still serves after the error burst")

        # ---- subcircuit expansion bomb: coded reply in bounded time ----
        t0 = time.monotonic()
        status, r = api(conn, {"v": 1, "op": "reduce",
                               "netlist": expansion_bomb(6),
                               "options": {"order": 8}})
        elapsed_ms = 1e3 * (time.monotonic() - t0)
        check(not r["ok"] and r["error"]["code"] == "io"
              and r["error"]["stage"] == "parser"
              and "limit of" in r["error"]["message"],
              "six-level subcircuit bomb gets a coded parser error")
        check(elapsed_ms < 250, f"bomb answered in {elapsed_ms:.1f} ms (< 250)")
        t0 = time.monotonic()
        status, r = api(conn, {"v": 1, "op": "reduce",
                               "netlist": expansion_bomb(5, "X" + "a" * (1 << 20)),
                               "options": {"order": 8}})
        elapsed_ms = 1e3 * (time.monotonic() - t0)
        check(not r["ok"] and r["error"]["code"] == "io"
              and "bytes of names" in r["error"]["message"],
              "five-level bomb under a 1 MB instance name gets a coded parser error")
        check(elapsed_ms < 250, f"long-named bomb answered in {elapsed_ms:.1f} ms (< 250)")
        status, r = api(conn, {"v": 1, "op": "sweep", "rom": rom,
                               "frequencies_hz": [1e6, 1e9]})
        check(r["ok"] and r["result"]["failed"] == 0,
              "a normal sweep still succeeds after the bomb")

        # ---- HTTP surface: healthz, metrics, 404/405 ----
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        check(resp.status == 200 and json.loads(resp.read())["ok"],
              "/healthz is live")
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        metrics = resp.read().decode()
        check(resp.status == 200 and "serve_request" in metrics.replace(".", "_")
              or "serve.request" in metrics, "/metrics exposes serve counters")
        with open(args.metrics_out, "w") as f:
            f.write(metrics)
        print(f"wrote {args.metrics_out} ({len(metrics)} bytes)")
        conn.request("GET", "/nope")
        resp = conn.getresponse()
        resp.read()
        check(resp.status == 404, "unknown path is 404")
        conn.request("GET", "/api/v1")
        resp = conn.getresponse()
        resp.read()
        check(resp.status == 405, "GET on the API is 405")
        conn.close()

        # ---- clean SIGTERM shutdown ----
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        check(rc == 0, "daemon exits 0 on SIGTERM")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    if failures:
        print(f"\n{len(failures)} check(s) failed")
        return 1
    print("\ndaemon smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
