#!/usr/bin/env python3
"""The repository benchmark: three workloads over the paper's pipeline.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (README.md in this directory says why each exists):

  sweep-cold   `bench all` at scale 1, --engine replay, --jobs 1, each
               sweep against a fresh empty trace store
  sweep-warm   the same sweep against a store that set-up filled with
               one sweep-cold run of the code under test
  serve-mixed  `rcc serve --jobs 1` fed a seeded stream of hot and
               submit requests: an open-loop low phase, an open-loop
               high phase and a closed-loop sat phase

With --trace 0 the last stdout line is one JSON object holding every
end-to-end metric: CPU times, scaled by a calibration timed around each
measured step (see README.md), peak memory, and set-up time.  With
--trace 1 it holds the per-layer ledger of a traced layer walk
(perfbench/pb.ml) instead.  The lines before it are the human-readable
report, wall-clock times and latencies included.  Every output is checked; a failed check
makes the exit status 1.  The program is built from source first, with
dune, from the root of the checkout this script lives in.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
BENCH = os.path.join(ROOT, "_build", "default", "bench", "main.exe")
RCC = os.path.join(ROOT, "_build", "default", "bin", "rcc.exe")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")

# md5 of the scale-1 tables `bench all` prints; identical under
# --engine execute, a cold replay sweep and a warm replay sweep.
TABLES_MD5 = "f6a68df3a95aafb186d9b6059b68970d"
# Cells in one scale-1 sweep, charged as failed when a sweep crashes.
CELLS_PER_SWEEP = 594

# Per-layer metrics measured from here rather than by pb.
CLIENT_LAYERS = ["http.hot.overhead_ms", "http.submit.overhead_ms",
                 "http.connect_ms", "queue.wait_ms", "gen.late_ms",
                 "trace.overhead_s"]

SETUP_BOOTS = 7        # sweep-cold: boots whose median is setup_s
WARM_SETUPS = 2        # sweep-warm: store warmings whose median is setup_s
SERVE_SETUPS = 3       # serve-mixed: server boots + warm-ups
CALIB_ROUNDS = 2       # calibration rounds between two measured steps
# CPU seconds of one calibration round (calib.ml) that the reported CPU
# times are scaled to: a run on a host where the round takes twice as
# long reports half its raw CPU times.
CALIB_REF_S = 0.05
REQUEST_TIMEOUT_S = 10.0
# sat-phase requests that cpu_s is given per, and per tail window: the
# tail of one window is its 10th-most expensive request, which a window
# this size keeps where the submit costs are still dense; the median
# over windows steadies it.
SAT_SEGMENT = 100


class Failure(Exception):
    """A run that cannot produce a result at all."""


def log(msg=""):
    print(msg, flush=True)


def ms(seconds):
    return seconds * 1e3


# --- processes ---------------------------------------------------------------

LIVE = []


def spawn(argv, **kw):
    p = subprocess.Popen(argv, **kw)
    LIVE.append(p)
    return p


def reap(p, waited=None):
    """Wait for ``p``, unless ``waited`` already holds the
    ``(status, rusage)`` of its exit; returns ``(exit_status,
    peak_rss_mb, cpu_s)``, where ``cpu_s`` is its user plus system
    time."""
    if waited is None:
        _, status, ru = os.wait4(p.pid, 0)
    else:
        status, ru = waited
    p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(p)
    return p.returncode, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime


def stop_all():
    for p in list(LIVE):
        if p.poll() is None:
            p.kill()
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        LIVE.remove(p)


def fresh_dir(name):
    path = os.path.join(RUN_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib", "harness"))):
        raise Failure("no repository at %s: the benchmark builds the program "
                      "from source and needs the whole checkout" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        raise Failure("dune is not on PATH")
    # The shared dune cache lives outside the checkout: keep it out.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run([dune, "build", "--root", ROOT, "bench/main.exe",
                        "bin/rcc.exe", "perfbench/pb.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise Failure("build failed")


class Calibrator:
    """A long-lived `pb calibrate`.  Each call times CALIB_ROUNDS rounds
    of its fixed work (calib.ml) and returns their CPU seconds."""

    def __init__(self):
        self.proc = spawn([PB, "calibrate"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True)
        self.rounds = []        # every round timed, for the report

    def __call__(self):
        self.proc.stdin.write("%d\n" % CALIB_ROUNDS)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Failure("pb calibrate stopped")
        rounds = json.loads(line)["rounds"]
        self.rounds += rounds
        return rounds

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        if reap(self.proc)[0] != 0:
            raise Failure("pb calibrate failed")


def scale(before, after):
    """The factor that turns CPU times measured between two calibrations
    into CPU times on the reference host: CALIB_REF_S over the median
    round of both."""
    return CALIB_REF_S / statistics.median(before + after)


def calibrated(calib, steps):
    """Run the callables ``steps`` in turn, with a calibration before the
    first, between each two and after the last.  Returns each step's
    result with the ``scale`` of the calibrations on either side."""
    before = calib()
    out = []
    for step in steps:
        value = step()
        after = calib()
        out.append((value, scale(before, after)))
        before = after
    return out


def pb(*args):
    """Run pb and return its JSON report; a failed check is reported
    there (exit status 1), anything else stops the run."""
    r = subprocess.run([PB] + list(args), stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True)
    if r.returncode not in (0, 1):
        raise Failure("pb %s exited %d" % (args[0], r.returncode))
    return json.loads(r.stdout)


# --- sweeps ------------------------------------------------------------------

class Sweep:
    """One sweep's CPU time in stretches: stretch k runs from table k-1's
    header (or the spawn) to table k's header, the time the bench took
    to compute table k; the last stretch runs from the last header to
    the exit.  ``scales`` holds a scale per stretch, or is None."""

    def __init__(self, wall_s, rss_mb, stretches, scales, cells, ok):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.stretches = stretches
        self.scales = scales
        self.cells = cells
        self.ok = ok

    def cpu_s(self, scaled):
        if not scaled:
            return sum(self.stretches)
        return sum(c * k for c, k in zip(self.stretches, self.scales))

    def table_cpu_s(self, scaled):
        tables = self.stretches[:-1]
        return [c * k for c, k in zip(tables, self.scales)] if scaled else tables


def stop(p):
    """Stop ``p`` with SIGSTOP and wait until it is stopped.  Returns
    None, or ``(status, rusage)`` if it exited first."""
    p.send_signal(signal.SIGSTOP)
    _, status, ru = os.wait4(p.pid, os.WUNTRACED)
    return None if os.WIFSTOPPED(status) else (status, ru)


def sweep(store, metrics, calib=None):
    """One `bench all` sweep (see ``Sweep``).  With ``calib``, the bench
    is stopped at each table header while the calibration is timed, and
    each stretch is scaled by the calibrations on either side of it: the
    host's speed drifts within a sweep.  The wall time runs to the last
    table line, less the pauses, and is only reported."""
    before = calib() if calib else None
    t0 = time.monotonic()
    paused = 0.0
    p = spawn([BENCH, "--jobs", "1", "--engine", "replay", "--store", store,
               "--metrics", metrics, "all"],
              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    cpu = loadgen.process_cpu_clock(p.pid)
    md5 = hashlib.md5()
    last = t0
    marks = [0.0]
    scales = []
    exited = None
    for line in p.stdout:
        last = time.monotonic()
        md5.update(line)
        if not line.startswith(b"== "):
            continue
        if calib is None:
            marks.append(cpu())
            continue
        if exited is None:
            exited = stop(p)
        marks.append(cpu() if exited is None else
                     exited[1].ru_utime + exited[1].ru_stime)
        after = calib()
        scales.append(scale(before, after))
        before = after
        if exited is None:
            p.send_signal(signal.SIGCONT)
        paused += time.monotonic() - last
    p.stdout.close()
    status, rss, cpu_s = reap(p, exited)
    if calib:
        scales.append(scale(before, calib()))
    stretches = [b - a for a, b in zip(marks, marks[1:] + [cpu_s])]
    cells = CELLS_PER_SWEEP
    if status == 0:
        with open(metrics) as f:
            cells = len(json.load(f)["cells"])
    return Sweep(last - t0 - paused, rss, stretches, scales if calib else None,
                 cells, status == 0 and md5.hexdigest() == TABLES_MD5)


def boot_cpu_seconds():
    """Boot the bench with a fresh store attached and print the static
    table: the fixed cost in front of every cold sweep.  Returns the
    CPU time that took."""
    store = fresh_dir("boot-store")
    p = spawn([BENCH, "--jobs", "1", "--engine", "replay", "--store", store,
               "table1"], stdout=subprocess.DEVNULL)
    status, _, cpu_s = reap(p)
    if status != 0:
        raise Failure("bench table1 exited %d" % status)
    return cpu_s


def run_sweeps(workload, args, result):
    checks = result["checks"]
    calib = result["calib"]
    warm = workload == "sweep-warm"
    if warm:
        def warming(i):
            s = sweep(fresh_dir("store-%d" % i), os.path.join(RUN_DIR, "setup.json"))
            checks.append(("set-up sweep %d tables match the pinned digest" % i, s.ok))
            return s.cpu_s(scaled=False)
        setups = calibrated(calib, [lambda i=i: warming(i)
                                    for i in range(WARM_SETUPS)])
        store = os.path.join(RUN_DIR, "store-%d" % (WARM_SETUPS - 1))
    else:
        [(boots, k)] = calibrated(calib, [lambda: [boot_cpu_seconds()
                                                   for _ in range(SETUP_BOOTS)]])
        setups = [(b, k) for b in boots]
    metrics = os.path.join(RUN_DIR, "cells.json")
    # A warm sweep takes about 2/5 of a cold one, so it can afford one
    # more; the tail over 39 tables is steadier than over 26.
    count = max(2, round(args.seconds / (5 if warm else 10)))
    sweeps = [sweep(store if warm else fresh_dir("store"), metrics, calib)
              for _ in range(count)]
    for i, s in enumerate(sweeps):
        checks.append(("sweep %d tables match the pinned digest" % i, s.ok))
        log("  sweep %d: %.3f s CPU, %.3f s scaled, %.3f s wall, %.1f MB"
            % (i, s.cpu_s(False), s.cpu_s(True), s.wall_s, s.rss_mb))
    result["attempted"] += sum(s.cells for s in sweeps)
    result["failed"] += sum(s.cells for s in sweeps if not s.ok)
    wall = statistics.median(s.wall_s for s in sweeps)
    log("  wall time per sweep, median: %.3f s (not gated)" % wall)

    def figures(scaled):
        table_ms = [ms(x) for s in sweeps for x in s.table_cpu_s(scaled)]
        return {
            "cpu_s": statistics.median(s.cpu_s(scaled) for s in sweeps),
            "setup_s": statistics.median(c * k if scaled else c for c, k in setups),
            "peak_rss_mb": statistics.median(s.rss_mb for s in sweeps),
            "cpu_p50_ms": stats.p50(table_ms),
            "cpu_tail_ms": stats.tail(table_ms),
        }

    result["e2e"] = figures(True)
    result["e2e_raw"] = figures(False)
    tables = sum(len(s.table_cpu_s(False)) for s in sweeps)
    result["notes"].append("cpu_p50_ms/cpu_tail_ms: per-table CPU time over %d "
                           "tables; tail is p%d"
                           % (tables, stats.tail_percentile(tables)))
    if args.trace:
        walk_store = store if warm else fresh_dir("walk-store")
        chrome = os.path.join(WORK, "trace-%s-%d.json" % (workload, args.seed))
        rep = pb("sweep-walk", "--cells", metrics, "--store", walk_store,
                 "--chrome", chrome)
        checks.append(("traced cells equal the harness's cells (%d)"
                       % rep["checked"], rep["ok"]))
        for m in rep["failures"][:20]:
            log("  walk: " + m)
        layers = rep["metrics"]
        layers.update({k: 0.0 for k in CLIENT_LAYERS})
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        result["layers"] = layers
        log("  chrome trace: %s" % os.path.relpath(chrome, ROOT))


# --- serve-mixed ---------------------------------------------------------------

def boot_server(store):
    """Start `rcc serve` on an ephemeral port; returns (process, port)."""
    err_path = os.path.join(RUN_DIR, "serve.err")
    err = open(err_path, "w")
    p = spawn([RCC, "serve", "--port", "0", "--jobs", "1", "--engine",
               "replay", "--store", store, "--quiet"],
              stdout=subprocess.DEVNULL, stderr=err)
    err.close()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        with open(err_path) as f:
            for line in f:
                if "listening on http://" in line:
                    addr = line.split("listening on http://", 1)[1].split()[0]
                    return p, int(addr.rsplit(":", 1)[1])
        if p.poll() is not None:
            break
        time.sleep(0.002)
    raise Failure("rcc serve did not announce a port")


def stop_server(p):
    p.send_signal(signal.SIGTERM)
    return reap(p)


def plan(args, count):
    r = subprocess.run([PB, "plan", "--seed", str(args.seed), "--hot",
                        str(args.hot_cells), "--count", str(count),
                        "--submit-share", str(args.submit_share)],
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       check=True)
    lines = [json.loads(x) for x in r.stdout.splitlines()]
    pairs = [(d["class"], d["body"]) for d in lines]
    for cls, body in pairs:
        if stats.classify(body) != cls:
            raise Failure("plan class %s does not match its body" % cls)
    return pairs[:args.hot_cells], pairs[args.hot_cells:]


def summarize(name, records, limit_s):
    lat = stats.latencies(records)
    line = "  %-12s n=%-4d p50 %8.2f ms" % (name, len(lat), ms(stats.p50(lat)))
    if stats.tail_rank(len(lat)):
        line += "  p%d %8.2f ms" % (stats.tail_percentile(len(lat)),
                                    ms(stats.tail(lat)))
    line += "  within %.0f ms: %.3f" % (ms(limit_s), stats.slo_share(records, limit_s))
    log(line)


def run_serve(args, result):
    checks = result["checks"]
    n_low = round(args.low_rps * args.seconds * 0.25)
    n_high = round(args.high_rps * args.seconds * 0.15)
    n_sat = SAT_SEGMENT * max(1, round(args.seconds * 0.5))
    warm, stream = plan(args, n_low + n_high + n_sat)
    low, high, sat = (stream[:n_low], stream[n_low:n_low + n_high],
                      stream[n_low + n_high:])
    limit_s = args.slo_ms / 1e3

    server = []

    def setup(i):
        """Boot a server and warm its hot set; the last one is measured."""
        if server:
            stop_server(server.pop()[0])
        p, port = boot_server(fresh_dir("serve-store"))
        server.append((p, port))
        recs = loadgen.closed_loop(port, warm, REQUEST_TIMEOUT_S, connections=1)
        checks.append(("set-up %d: every warm-up request answered 200" % i,
                       all(r.ok for r in recs)))
        return recs, loadgen.process_cpu_clock(p.pid)()

    done = calibrated(result["calib"],
                      [lambda i=i: setup(i) for i in range(SERVE_SETUPS)])
    setups = [(cpu, k) for (_, cpu), k in done]
    warm_records = done[-1][0][0]
    p, port = server[0]

    phases = [("low", loadgen.open_loop(port, low, args.low_rps, REQUEST_TIMEOUT_S)),
              ("high", loadgen.open_loop(port, high, args.high_rps, REQUEST_TIMEOUT_S))]
    clock = loadgen.process_cpu_clock(p.pid)

    def window(w):
        recs = loadgen.closed_loop(
            port, sat[w * SAT_SEGMENT:(w + 1) * SAT_SEGMENT], REQUEST_TIMEOUT_S,
            connections=1, cpu_clock=clock)
        for r in recs:
            r.index += w * SAT_SEGMENT
        return recs

    # The sat phase runs in windows of SAT_SEGMENT requests, each scaled
    # by the calibrations on either side of it.
    windows = calibrated(result["calib"],
                         [lambda w=w: window(w) for w in range(n_sat // SAT_SEGMENT)])
    phases.append(("sat", [r for recs, _ in windows for r in recs]))
    sat_s = sum(recs[-1].end - recs[0].due for recs, _ in windows)
    status, rss, _ = stop_server(p)
    checks.append(("rcc serve drained and exited 0", status == 0))

    # The server answers one request at a time (--jobs 1), so completion
    # order is the order it served them in; the in-process replay
    # follows the same order.
    measured = sorted((r for _, rs in phases for r in rs), key=lambda r: r.end)
    exchange = os.path.join(RUN_DIR, "exchange.jsonl")
    with open(exchange, "w") as f:
        entries = [("warm", r, warm[r.index][1]) for r in warm_records]
        phase_of = {id(r): name for name, rs in phases for r in rs}
        reqs = {"low": low, "high": high, "sat": sat}
        entries += [(phase_of[id(r)], r, reqs[phase_of[id(r)]][r.index][1])
                    for r in measured]
        for phase, r, body in entries:
            f.write(json.dumps({"phase": phase, "class": r.cls, "body": body,
                                "status": r.status if r.ok else 0,
                                "response": r.body if r.ok else ""}) + "\n")
    rep = pb("serve-walk", "--exchange", exchange, "--store",
             fresh_dir("walk-store"))
    checks.append(("every 200 body equals the in-process response (%d)"
                   % rep["checked"], rep["ok"]))
    for m in rep["failures"][:20]:
        log("  check: " + m)
    log("  cells timed, by request class and engine: %s"
        % ", ".join("%s %d" % kv for kv in sorted(rep["engines"].items())))
    wrong = sum(1 for i in rep["mismatched"] if entries[i][0] != "warm")

    attempted = sum(len(rs) for _, rs in phases)
    failed = sum(1 for _, rs in phases for r in rs if not r.ok) + wrong
    result["attempted"] += attempted
    result["failed"] += failed
    for name, rs in phases:
        errors = [r.error or "HTTP %s" % r.status for r in rs if not r.ok]
        if errors:
            log("  %s: %d failed, first: %s" % (name, len(errors), errors[0]))

    low_rs = phases[0][1]
    high_rs = phases[1][1]
    sat_rs = phases[2][1]
    log("latency from due time, or from the send in the closed loop (failed "
        "requests count as infinitely late):")
    summarize("low", low_rs, limit_s)
    for cls in ("hot", "submit"):
        summarize("low." + cls, [r for r in low_rs if r.cls == cls], limit_s)
    summarize("high", high_rs, limit_s)
    summarize("sat", sat_rs, limit_s)
    log("  sat throughput %.1f requests/s over 1 connection"
        % (len(sat_rs) / sat_s))
    for name, rs in phases[:2]:
        waits = [ms(r.wait_s) for r in rs]
        lates = [ms(r.late_s) for r in rs if r.late_s is not None]
        log("  %-4s queue wait mean %.2f ms max %.2f ms; generator late max %.2f ms"
            % (name, statistics.fmean(waits), max(waits), max(lates, default=0.0)))

    def low_ms(pick):
        return [ms(x) for x in stats.latencies([r for r in low_rs if pick(r)])]

    # The gated figures are the server's CPU time per request in the
    # closed loop, not latencies: wall-clock latency on this kind of
    # shared host followed how much CPU the other tenants took, which
    # swung run to run by 2x and more.  A failed request counts as
    # infinitely expensive, reported as the timeout.
    cap = ms(REQUEST_TIMEOUT_S)

    def figures(scaled):
        sat_ms = [ms(x) * (k if scaled else 1.0) for recs, k in windows
                  for x in stats.cpu_times(recs)]
        return {
            "cpu_s": min(sum(sat_ms) / 1e3 * SAT_SEGMENT / len(sat_ms),
                         REQUEST_TIMEOUT_S),
            "setup_s": statistics.median(c * k if scaled else c for c, k in setups),
            "peak_rss_mb": rss,
            "cpu_p50_ms": min(stats.p50(sat_ms), cap),
            "cpu_tail_ms": min(stats.windowed_tail(sat_ms, SAT_SEGMENT), cap),
        }

    result["e2e"] = figures(True)
    result["e2e_raw"] = figures(False)
    result["notes"].append(
        "cpu_s: server CPU time per %d sat requests; "
        "cpu_p50_ms: server CPU time per request, sat phase, %d requests; "
        "cpu_tail_ms: median over %d-request sat windows of p%d"
        % (SAT_SEGMENT, len(sat_rs), SAT_SEGMENT,
           stats.tail_percentile(SAT_SEGMENT)))
    if args.trace:
        chrome = os.path.join(WORK, "trace-serve-mixed-%d.json" % args.seed)
        traced = pb("serve-walk", "--exchange", exchange, "--store",
                    fresh_dir("trace-store"), "--chrome", chrome)
        checks.append(("traced replay: every 200 body equals the in-process "
                       "response", traced["ok"]))
        layers = traced["metrics"]
        service = rep["service_p50_ms"]
        for cls in ("hot", "submit"):
            picked = low_ms(lambda r, c=cls: r.cls == c and r.ok)
            layers["http.%s.overhead_ms" % cls] = (
                stats.p50(picked) - service.get(cls, 0.0) if picked else 0.0)
        low_ok = [r for r in low_rs if r.ok]
        layers["http.connect_ms"] = stats.p50([ms(r.connect_s) for r in low_ok])
        layers["queue.wait_ms"] = statistics.fmean(ms(r.wait_s) for r in high_rs)
        layers["gen.late_ms"] = max(ms(r.late_s) for _, rs in phases[:2]
                                    for r in rs if r.late_s is not None)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - rep["metrics"]["trace.wall_s"]
        result["layers"] = layers
        log("  chrome trace: %s" % os.path.relpath(chrome, ROOT))


# --- main ------------------------------------------------------------------------

WORKLOADS = {"sweep-cold": lambda a, r: run_sweeps("sweep-cold", a, r),
             "sweep-warm": lambda a, r: run_sweeps("sweep-warm", a, r),
             "serve-mixed": run_serve}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--low-rps", type=float, required=True)
    ap.add_argument("--high-rps", type=float, required=True)
    ap.add_argument("--slo-ms", type=float, required=True)
    ap.add_argument("--submit-share", type=float, required=True)
    ap.add_argument("--hot-cells", type=int, required=True)
    args = ap.parse_args()
    # Stopped from outside: unwind through the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    global RUN_DIR
    RUN_DIR = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    result = {"attempted": 0, "failed": 0, "checks": [], "notes": []}
    try:
        build()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        os.makedirs(RUN_DIR)
        log("%s, seed %d, %d s%s" % (args.workload, args.seed, args.seconds,
                                       ", traced" if args.trace else ""))
        result["calib"] = Calibrator()
        WORKLOADS[args.workload](args, result)
        result["calib"].close()
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        stop_all()
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    spec = benchmark_spec()
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        rounds = result["calib"].rounds
        log("calibration: median %.6f s over %d rounds (reference %.3f s)"
            % (statistics.median(rounds), len(rounds), CALIB_REF_S))
        log("raw: " + json.dumps(result["e2e_raw"]))
        values = result["e2e"]
    log("checks:")
    for what, ok in result["checks"]:
        log("  %s %s" % ("ok  " if ok else "FAIL", what))
    for n in result["notes"]:
        log("note: " + n)
    log("metrics:")
    for n in names:
        log("  %-28s %14.6f %s" % (n, values[n], units[n]))
    correct = result["failed"] == 0 and all(ok for _, ok in result["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
