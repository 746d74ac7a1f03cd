#!/usr/bin/env python3
"""Serving benchmark: upa_served and upa_dispatch under closed-loop load.

Run from the repository root:

    python3 perfbench/run.py --workload ping_direct --seed 1 --seconds 10 --trace 0

Builds upa_served, upa_dispatch and the probe (perfbench/probe.cpp) from
the checkout's sources, starts the daemons as child processes on fresh
loopback addresses, drives them with the probe (4 client threads and
connections, one process), and checks every response byte for byte
against serve::Dispatcher run in the probe's own process.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(the end-to-end run's daemons always run with tracing off). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The line before it is the full report (stamp, checks, baselines); it is
also written under <build dir>/results/ for perfbench/compare.py. See
perfbench/README.md for the workloads and every metric's definition.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("ping_direct", "ping_dispatch", "session_b", "campaign_restart")
CONNECTIONS = min(4, os.cpu_count() or 1)
# Connection-held admission: a keep-alive connection holds a worker and
# a K slot for its whole life, so a daemon needs a worker per client
# connection; K leaves room for each connection's successor while the
# server is still retiring the closed one.
SERVED_WORKERS = CONNECTIONS
SERVED_CAPACITY = 2 * CONNECTIONS
REPLICAS = 2
SETUP_REPS = 9
# Measured time is cut into windows; each metric is the median over the
# windows, which keeps a burst of outside interference from moving it.
WINDOW_S = 1.0
CAMPAIGN_WINDOW_S = 0.25  # of request-phase time; rounds are short

# ROADMAP re-anchor baselines (4-core container, Release, in-process, one
# keep-alive connection), reported next to the matching measurements.
BASELINES = {
    "ta.category_breakdown_us": 478.0,
    "ta.eq10_us": 7.8,
    "queueing.mmck_metrics_us.k1000": 24.0,
    "json.dump_us.mmck_k1000": 34.0,
    "json.parse_us.mmck_k1000": 92.0,
    "hop.ping_direct_1conn_p50_us": 41.0,
    "hop.ping_dispatch_1conn_p50_us": 118.0,
}

E2E_UNITS = {
    "rps": "1/s",
    "p50_us": "us",
    "p99_us": "us",
    "session_p50_us": "us",
    "session_p99_us": "us",
    "ok_frac": "frac",
    "setup_s": "s",
    "rss_mb": "MB",
}

METHODS = ("ping", "mmck_metrics", "web_farm_availability",
           "user_availability", "composite_availability", "run_campaign")
# The server's queue_wait phase (a kept-alive connection's later
# requests) is anchored at the line read, so it is zero by construction
# and left out; admission_wait covers each connection's first request.
TRACE_LAYERS = ("client.call", "dispatch_request", "dispatch_attempt",
                "serve_request", "admission_wait", "handler", "serialize")


def layer_units():
    units = {
        "transport.ping_rtt_us": "us",
        "transport.connect_us": "us",
        "serve.handler_us": "us",
        "serve.rejected": "count",
        "serve.max_in_system": "count",
        "tcp.active_opens_per_req": "count",
        "tcp.time_wait_at_start": "count",
        "json.parse_us.mmck_k1000": "us",
        "json.dump_us.mmck_k1000": "us",
        "dispatch.hop_us": "us",
        "dispatch.attempt_us": "us",
        "dispatch.attempts_per_req": "count",
        "dispatch.retries": "count",
        "dispatch.failovers": "count",
        "cache.hit_rate": "frac",
        "cache.misses": "count",
        "cache.disk_hits": "count",
        "cache.records_appended": "count",
        "cache.records_indexed": "count",
        "cache.mem_hit_us": "us",
        "cache.disk_hit_us": "us",
        "cache.attach_ms": "ms",
        "queueing.mmck_metrics_us": "us",
        "queueing.mmck_metrics_us.k1000": "us",
        "markov.steady_state_us": "us",
        "ta.eq10_us": "us",
        "ta.category_breakdown_us": "us",
        "inject.run_campaign_us": "us",
        "trace.unaccounted_us": "us",
        "trace.latency_p50_us": "us",
        "trace.overhead_frac": "frac",
        "trace.complete_frac": "frac",
    }
    for m in METHODS:
        units["json.parse_us." + m] = "us"
        units["json.dump_us." + m] = "us"
        units["protocol.dispatch_line_us." + m] = "us"
    for layer in TRACE_LAYERS:
        units["trace.self_us." + layer] = "us"
    return units


LAYER_UNITS = layer_units()


class BenchError(Exception):
    """A failed check: the run prints no result line and exits 1."""


START = time.perf_counter()


def log(msg):
    print("perfbench[%7.2fs]: %s" % (time.perf_counter() - START, msg),
          file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------

def newest_mtime(dirs):
    newest = 0.0
    for d in dirs:
        for base, _, files in os.walk(d):
            for f in files:
                newest = max(newest, os.stat(os.path.join(base, f)).st_mtime)
    return newest


def build(root, build_dir):
    for required in ("src/CMakeLists.txt", "tools/upa_served.cpp",
                     "tools/upa_dispatch.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, required)):
            raise BenchError(required + " not found: run from the root of a "
                             "full checkout of the repository")
    os.makedirs(build_dir, exist_ok=True)
    binaries = [os.path.join(build_dir, b)
                for b in ("upa_served", "upa_dispatch", "upa_perfbench")]
    sources = [os.path.join(root, d) for d in ("src", "tools", "perfbench")]
    stamp = os.path.join(build_dir, "built.stamp")
    if all(os.path.isfile(b) for b in binaries + [stamp]) and \
            os.stat(stamp).st_mtime > newest_mtime(sources):
        return binaries
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count()),
                    "--target", "upa_served_tool", "upa_dispatch_tool",
                    "upa_perfbench"], check=True, stdout=sys.stderr)
    with open(stamp, "w"):
        pass
    return binaries


# --- sockets ------------------------------------------------------------

def proc_net_tcp():
    """(local, remote, state) for every IPv4/IPv6 TCP socket."""
    rows = []
    for path in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(path) as f:
                next(f)
                for line in f:
                    parts = line.split()
                    rows.append((parts[1], parts[2], parts[3]))
        except OSError:
            pass
    return rows


def hex_addr(addr):
    """/proc/net/tcp's little-endian hex form of an IPv4 address."""
    return "".join("%02X" % int(b) for b in reversed(addr.split(".")))


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def active_opens():
    with open("/proc/net/snmp") as f:
        lines = [l.split() for l in f if l.startswith("Tcp:")]
    return int(lines[1][lines[0].index("ActiveOpens")])


class Addresses:
    """Fresh 127.x.y.z addresses, one per daemon.

    A run's connections then share no 4-tuple with any earlier run's
    TIME_WAIT sockets, so ping_dispatch's one-connection-per-attempt
    churn cannot slow the next run's connects. Addresses are drawn from
    the OS's randomness, not the workload seed: they are not an input.
    """

    def __init__(self):
        self.rng = random.SystemRandom()
        rows = proc_net_tcp()
        self.in_use = {r[0].split(":")[0] for r in rows} | \
                      {r[1].split(":")[0] for r in rows}
        self.handed_out = []

    def endpoint(self):
        while True:
            addr = "127.%d.%d.%d" % (self.rng.randint(1, 254),
                                     self.rng.randint(0, 255),
                                     self.rng.randint(1, 254))
            if hex_addr(addr) not in self.in_use and addr not in self.handed_out:
                break
        self.handed_out.append(addr)
        with socket.socket() as s:
            s.bind((addr, 0))
            return addr, s.getsockname()[1]


# --- daemons ------------------------------------------------------------

def rpc(endpoint, method, params=None, timeout=10.0):
    req = {"id": 1, "method": method}
    if params is not None:
        req["params"] = params
    with socket.create_connection(endpoint, timeout=timeout) as s:
        s.sendall((json.dumps(req) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


def try_ping(endpoint):
    try:
        with socket.create_connection(endpoint, timeout=1.0) as s:
            s.sendall(b'{"id":0,"method":"ping"}\n')
            return b'"ok":true' in s.recv(4096)
    except OSError:
        return False


class Daemon:
    def __init__(self, argv, endpoint, log_path):
        self.endpoint = endpoint
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=self.log)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, graceful=True):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.proc.returncode not in (0, -signal.SIGKILL):
            raise BenchError("daemon %s exited with %s"
                             % (self.endpoint, self.proc.returncode))


class Topology:
    """The daemons of one workload: one upa_served, or upa_dispatch in
    front of REPLICAS of them. `entry` is where clients connect."""

    def __init__(self, bins, addrs, run_dir, front, trace=False,
                 cache_dir=None):
        served, dispatch = bins[0], bins[1]
        check_sizing(SERVED_WORKERS, SERVED_CAPACITY, CONNECTIONS)
        extra = ["--trace"] if trace else []
        self.served = []
        self.front = None
        start = time.perf_counter()
        for _ in range(REPLICAS if front else 1):
            ep = addrs.endpoint()
            argv = [served, "--bind", ep[0], "--port", str(ep[1]),
                    "--workers", str(SERVED_WORKERS),
                    "--capacity", str(SERVED_CAPACITY)] + extra
            if cache_dir:
                argv += ["--cache-dir", cache_dir]
            self.served.append(Daemon(argv, ep, os.path.join(run_dir, "daemons.log")))
        if front:
            ep = addrs.endpoint()
            ups = ",".join("%s:%d" % d.endpoint for d in self.served)
            self.front = Daemon([dispatch, "--bind", ep[0], "--port", str(ep[1]),
                                 "--upstreams", ups] + extra,
                                ep, os.path.join(run_dir, "daemons.log"))
        self.entry = (self.front or self.served[0]).endpoint
        deadline = start + 30.0
        while not try_ping(self.entry):
            if time.perf_counter() > deadline or any(
                    d.proc.poll() is not None for d in self.daemons()):
                self.stop()
                raise BenchError("daemons at %s never answered ping" % (self.entry,))
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - start

    def daemons(self):
        return self.served + ([self.front] if self.front else [])

    def rss_mb(self):
        return sum(d.vm_hwm_mb() for d in self.daemons())

    def stop(self, graceful=True):
        """SIGTERM drains and must exit 0; graceful=False SIGKILLs, for
        daemons whose shutdown the benchmark does not need."""
        log("stopping %d daemons" % len(self.daemons()))
        for d in reversed(self.daemons()):
            d.stop(graceful)


def check_sizing(workers, capacity, connections):
    """Refuses a configuration under which a client could stall: with
    connection-held admission every open client connection pins a
    worker and a K slot."""
    if workers < connections or capacity < connections:
        raise BenchError("sizing guard: workers=%d capacity=%d cannot hold "
                         "%d keep-alive connections" % (workers, capacity,
                                                       connections))


# --- the probe ----------------------------------------------------------

class Probe:
    def __init__(self, binary, workload, seed):
        self.proc = subprocess.Popen(
            [binary, "--workload", workload, "--seed", str(seed),
             "--connections", str(CONNECTIONS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("probe exited with %s" % self.proc.wait())
        return json.loads(line)

    def cmd(self, *words):
        log("probe: %s" % " ".join(str(w) for w in words))
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        out = self._read()
        if "error" in out:
            raise BenchError("probe: " + out["error"])
        return out

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# --- checks -------------------------------------------------------------

class Checks:
    def __init__(self):
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def tally(self, what, t):
        """Closed-loop tallies: every response must match its reference,
        with no 503, 504 or transport error."""
        self.attempted += int(t["attempted"])
        bad = int(t["attempted"]) - int(t["ok"])
        self.failed += bad
        if bad:
            self.failures.append("%s: %d of %d requests failed (%s)" % (
                what, bad, t["attempted"],
                ", ".join("%s=%d" % (k, t[k]) for k in (
                    "rejected", "deadline", "transport", "other_error",
                    "mismatched") if t[k])))

    def expect(self, what, ok):
        if not ok:
            self.failures.append(what)


def cache_counts(stats):
    r = stats["result"]
    p = r.get("persist", {})
    return {
        "cache.hit_rate": r["hit_rate"],
        "cache.misses": r["misses"],
        "cache.disk_hits": r["disk_hits"],
        "cache.records_appended": p.get("records_appended", 0),
        "cache.records_indexed": p.get("records_indexed", 0),
    }


def check_round_counts(checks, counts, implied, first):
    """A round's cache counts equal the grid's implied counts, and every
    round's hit rate equals the first round's."""
    for key in ("misses", "disk_hits", "records_appended", "records_indexed"):
        checks.expect("cache.%s = %s, the grid implies %s" % (
            key, counts["cache." + key], implied[key]),
            counts["cache." + key] == implied[key])
    if first is not None:
        checks.expect("cache.hit_rate = %s, the first round had %s" % (
            counts["cache.hit_rate"], first["cache.hit_rate"]),
            counts["cache.hit_rate"] == first["cache.hit_rate"])


# --- workloads ----------------------------------------------------------

def prepare_cache_dir(ctx):
    """Fills a cache directory with the pre-populated half of the
    campaign grid through a short-lived upa_served."""
    path = os.path.join(ctx["run_dir"], "prepopulated")
    topo = Topology(ctx["bins"], ctx["addrs"], ctx["run_dir"], front=False,
                    cache_dir=path)
    try:
        ctx["checks"].tally("prepopulate",
                            ctx["probe"].cmd("prepopulate", *topo.entry))
    finally:
        topo.stop()
    return path


def fresh_copy(ctx, src, name):
    dst = os.path.join(ctx["run_dir"], name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    lock = os.path.join(dst, ".upalock")
    if os.path.exists(lock):
        os.remove(lock)
    return dst


def campaign_rounds(ctx, seconds, record=True, trace=False, prepared=None):
    """campaign_restart: restart upa_served on a fresh copy of the
    pre-populated directory, request every grid point twice, check the
    cache counts, stop. Repeats until `seconds` have elapsed."""
    probe, checks = ctx["probe"], ctx["checks"]
    implied = probe.ready["implied"]
    prepared = prepared or prepare_cache_dir(ctx)
    setups, rss, counts, stats = [], [], None, None
    end = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < end:
        d = fresh_copy(ctx, prepared, "round")
        topo = Topology(ctx["bins"], ctx["addrs"], ctx["run_dir"], front=False,
                        cache_dir=d, trace=trace)
        try:
            setups.append(topo.setup_s)
            if trace:
                probe.cmd("subscribe", *topo.entry)
                t = probe.cmd("traced", *topo.entry, 0, 0, "workload", 1)
            else:
                t = recorded(probe, "round", *topo.entry, int(record))
            checks.tally("campaign round", t)
            stats = rpc(topo.entry, "stats")
            round_counts = cache_counts(rpc(topo.entry, "cache", {"op": "stats"}))
            check_round_counts(checks, round_counts, implied, counts)
            counts = counts or round_counts
            rss.append(topo.rss_mb())
        finally:
            topo.stop(graceful=False)
        rounds += 1
        if trace:
            break
    return {"setups": setups, "rss": rss, "counts": counts, "stats": stats,
            "rounds": rounds, "prepared": prepared, "last_tally": t}


def run_e2e(ctx, workload, seconds):
    probe, checks = ctx["probe"], ctx["checks"]
    metrics = {}
    if workload == "campaign_restart":
        r = campaign_rounds(ctx, seconds)
        setup_s = statistics.median(r["setups"])
        rss = statistics.median(r["rss"])
        extra = {"rounds": r["rounds"]}
    else:
        front = workload == "ping_dispatch"
        setups = []
        for _ in range(SETUP_REPS - 1):
            topo = Topology(ctx["bins"], ctx["addrs"], ctx["run_dir"], front)
            setups.append(topo.setup_s)
            # upa_served installs its SIGTERM handler only after the
            # listener is up, so a SIGTERM this early could kill it
            # before it can drain; these set-ups need no drain.
            topo.stop(graceful=False)
        topo = Topology(ctx["bins"], ctx["addrs"], ctx["run_dir"], front)
        setups.append(topo.setup_s)
        try:
            # Warm-up: one pass over every thread's sessions, a fixed
            # amount of work, so rss_mb does not grow with throughput.
            checks.tally("warm-up", probe.cmd("round", *topo.entry, 0))
            rss = topo.rss_mb()
            load_windows(ctx, topo.entry, seconds)
        finally:
            topo.stop()
        setup_s = statistics.median(setups)
        extra = {}
    s = probe.cmd("summary", CAMPAIGN_WINDOW_S if workload == "campaign_restart"
                  else WINDOW_S)
    for k in ("rps", "p50_us", "p99_us", "session_p50_us", "session_p99_us",
              "ok_frac"):
        metrics[k] = s[k]
    metrics["setup_s"] = setup_s
    metrics["rss_mb"] = rss
    extra.update({k: s[k] for k in ("windows", "windows_kept", "steal_frac",
                                    "latency_samples", "session_samples")})
    return metrics, extra


def load_windows(ctx, entry, seconds):
    """Recorded closed-loop load, one probe `load` per window."""
    for _ in range(max(1, int(round(seconds / WINDOW_S)))):
        ctx["checks"].tally("load", recorded(ctx["probe"], "load", *entry,
                                             WINDOW_S, 1))


def recorded(probe, *words):
    """A probe load or round, followed by the CPU time the hypervisor
    stole meanwhile, which the probe's summary uses to leave out windows
    disturbed from outside the benchmark."""
    steal0, total0 = cpu_ticks()
    out = probe.cmd(*words)
    steal1, total1 = cpu_ticks()
    if words[-1]:
        probe.cmd("steal", steal1 - steal0, total1 - total0)
    return out


def dispatch_layer(dstats):
    r = dstats["result"]
    requests = r["requests"]
    attempts = sum(u["attempts"] for u in r["upstreams"])
    lat_sum = sum(u["latency"]["sum"] for u in r["upstreams"])
    lat_n = sum(u["latency"]["count"] for u in r["upstreams"])
    return {
        "dispatch.attempt_us": 1e6 * lat_sum / max(lat_n, 1),
        "dispatch.attempts_per_req": attempts / max(requests, 1),
        "dispatch.retries": r["retries"],
        "dispatch.failovers": r["failovers"],
    }


def serve_layer(stats_list):
    busy = sum(s["result"]["busy_seconds"] for s in stats_list)
    handled = sum(s["result"]["handled_requests"] for s in stats_list)
    return {
        "serve.handler_us": 1e6 * busy / max(handled, 1),
        "serve.rejected": sum(s["result"]["rejected"] for s in stats_list),
        "serve.max_in_system": max(s["result"]["max_in_system"]
                                   for s in stats_list),
    }


def run_layers(ctx, workload, seconds):
    probe, checks, bins, addrs, run_dir = (ctx[k] for k in (
        "probe", "checks", "bins", "addrs", "run_dir"))
    m = {}
    front = workload == "ping_dispatch"
    untraced_s = max(1.0, 0.4 * seconds)
    traced_s = max(0.5, 0.2 * seconds)

    # 1. Untraced load: daemon counters and the overhead denominator.
    if workload == "campaign_restart":
        opens0 = active_opens()
        r = campaign_rounds(ctx, untraced_s)
        opens1 = active_opens()
        prepared = r["prepared"]
        s = probe.cmd("summary", CAMPAIGN_WINDOW_S)
        m.update(serve_layer([r["stats"]]))
        m.update(r["counts"])
        dstats = None
    else:
        prepared = prepare_cache_dir(ctx)
        topo = Topology(bins, addrs, run_dir, front)
        try:
            checks.tally("warm-up", probe.cmd("round", *topo.entry, 0))
            opens0 = active_opens()
            load_windows(ctx, topo.entry, untraced_s)
            opens1 = active_opens()
            stats = [rpc(d.endpoint, "stats") for d in topo.served]
            cstats = rpc(topo.served[0].endpoint, "cache", {"op": "stats"})
            dstats = rpc(topo.front.endpoint, "dispatch_stats") if front else None
        finally:
            topo.stop()
        s = probe.cmd("summary", WINDOW_S)
        m.update(serve_layer(stats))
        m.update(cache_counts(cstats))
    m["tcp.active_opens_per_req"] = (opens1 - opens0) / max(s["attempted"], 1)
    untraced_rps = s["rps"]

    # 2. In-process layers, with the cache tiers on a fresh copy of the
    # pre-populated directory.
    lay = probe.cmd("layers", fresh_copy(ctx, prepared, "layers"))
    m.update(lay)

    # 3. Single-connection hop probe: direct vs through a front.
    hop_farm = Topology(bins, addrs, run_dir, front=True)
    try:
        hop = probe.cmd("hop", *hop_farm.served[0].endpoint, *hop_farm.entry, 2000)
        hop_dstats = rpc(hop_farm.entry, "dispatch_stats")
    finally:
        hop_farm.stop()
    m["transport.ping_rtt_us"] = hop["ping_direct_1conn_p50_us"] - \
        lay["protocol.dispatch_line_us.ping"]
    m["transport.connect_us"] = hop["connect_us"]
    m["dispatch.hop_us"] = hop["ping_dispatch_1conn_p50_us"] - \
        hop["ping_direct_1conn_p50_us"]
    m.update(dispatch_layer(dstats or hop_dstats))
    m["dispatch.attempt_us"] = dispatch_layer(hop_dstats)["dispatch.attempt_us"]

    # 4. Traced run: the workload's topology with --trace, plus a traced
    # hop pass for the dispatch layers a front-less workload never
    # crosses. Spans come from the subscribe streams.
    if workload == "campaign_restart":
        r = campaign_rounds(ctx, 0, trace=True, prepared=prepared)
        t = r["last_tally"]
    else:
        topo = Topology(bins, addrs, run_dir, front, trace=True)
        try:
            for d in topo.daemons():
                probe.cmd("subscribe", *d.endpoint)
            t = probe.cmd("traced", *topo.entry, traced_s, 20000, "workload", 0)
            checks.tally("traced load", t)
        finally:
            topo.stop()
    if not front:
        hop_farm = Topology(bins, addrs, run_dir, front=True, trace=True)
        try:
            for d in hop_farm.daemons():
                probe.cmd("subscribe", *d.endpoint)
            checks.tally("traced hop", probe.cmd("traced", *hop_farm.entry,
                                                  0, 500, "hop", 0))
        finally:
            hop_farm.stop()
    rep = probe.cmd("trace_report")
    for layer in TRACE_LAYERS:
        if layer not in rep["self_us"]:
            checks.expect("traced run recorded no %s span" % layer, False)
        m["trace.self_us." + layer] = rep["self_us"].get(layer, 0.0)
    m["trace.unaccounted_us"] = rep["unaccounted_us"]
    m["trace.latency_p50_us"] = rep["latency_p50_us"]
    m["trace.complete_frac"] = rep["complete_frac"]
    traced_rps = t["ok"] / t["elapsed_s"]
    m["trace.overhead_frac"] = 1.0 - traced_rps / untraced_rps
    extra = {"hop": hop, "trace": rep, "untraced_rps": untraced_rps,
             "traced_rps": traced_rps}
    return m, extra


# --- stamp and report ---------------------------------------------------

def source_id(root):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return {"git_sha": sha.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for d in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, d))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(base, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return {"git_sha": None, "tree_sha1": h.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    bins = build(root, build_dir)

    ticks0 = cpu_ticks()
    tw_rows = proc_net_tcp()
    addrs = Addresses()
    run_dir = os.path.join(build_dir, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    checks = Checks()
    probe = Probe(bins[2], args.workload, args.seed)
    ctx = {"probe": probe, "checks": checks, "bins": bins, "addrs": addrs,
           "run_dir": run_dir}
    try:
        if args.trace:
            metrics, extra = run_layers(ctx, args.workload, args.seconds)
            metrics["tcp.time_wait_at_start"] = sum(
                1 for r in tw_rows if r[2] == "06")
            units = LAYER_UNITS
        else:
            metrics, extra = run_e2e(ctx, args.workload, args.seconds)
            units = E2E_UNITS
    finally:
        probe.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    ticks1 = cpu_ticks()
    missing = sorted(set(units) - set(metrics))
    checks.expect("metrics not measured: %s" % missing, not missing)
    # Socket hygiene: no socket of any earlier run may touch this run's
    # addresses (Addresses draws around them; this re-checks the draw).
    used = {hex_addr(a) for a in addrs.handed_out}
    clean = not any(r[0].split(":")[0] in used or r[1].split(":")[0] in used
                    for r in tw_rows)
    report = {
        "stamp": dict(source_id(root), nproc=os.cpu_count(),
                      build_type=probe.ready["build_type"],
                      workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      connections=CONNECTIONS, served_workers=SERVED_WORKERS,
                      served_capacity=SERVED_CAPACITY,
                      time_wait_at_start=sum(1 for r in tw_rows if r[2] == "06"),
                      socket_state_clean=clean,
                      # Time the hypervisor ran something else while this
                      # guest wanted a CPU: outside interference.
                      steal_frac=(ticks1[0] - ticks0[0]) /
                      max(ticks1[1] - ticks0[1], 1)),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units
                    if k in metrics},
        "baselines": {k: {"baseline": v, "measured": metrics.get(k, extra.get(
            "hop", {}).get(k.split(".", 1)[-1]))} for k, v in BASELINES.items()}
                     if args.trace else {},
        "details": extra,
        "checks": checks.failures,
    }
    if not clean:
        log("warning: run did not start from a clean socket state")
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-s%d-t%d-%d.json" % (
            args.workload, args.seed, args.trace, int(time.time() * 1000))),
            "w") as f:
        json.dump(report, f, indent=1)
    for k in sorted(report["metrics"]):
        log("%-44s %14.4f %s" % (k, metrics[k], units[k]))
    for failure in checks.failures:
        log("CHECK FAILED: " + failure)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": report["metrics"],
    }))
    return 0


def on_terminate(signum, _frame):
    raise BenchError("terminated by signal %d" % signum)


if __name__ == "__main__":
    # SIGTERM/SIGINT unwind through the finally blocks that stop daemons.
    signal.signal(signal.SIGTERM, on_terminate)
    signal.signal(signal.SIGINT, on_terminate)
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        sys.exit(1)
