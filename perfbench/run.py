#!/usr/bin/env python3
"""DART production-path benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the CLI, the load
generator (perfbench/pb.exe) and the host-speed probe (perfbench/probe.exe)
with dune, runs workload W for S seconds on inputs generated from seed N,
checks every operation's output, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(from spans the load generator records around each layer's public calls, and
from the server's metrics exposition).  Raw observations, spans and a
result file with the facts that make two runs comparable are written to
perfbench/out/<workload>-<seed>-<trace>/.

Workloads (an operation is what the latency metrics time):
  repair-batch       in-process, closed loop, 1 client: the CLI `repair`
                     path on unique documents of all four scenarios; an
                     operation is one document.
  validate-sessions  `dart-cli serve --data-dir`, closed loop, one
                     operator running full validation sessions on one
                     connection; an operation is one operator round
                     (decide -> next suggestions).  The round that ends
                     a session returns no suggestions: it is counted and
                     checked but not timed.
  ingest-detect      `dart-cli serve`, open loop at a fixed rate over two
                     connections: stateless `detect` on large noisy
                     documents; an operation is one request, timed from
                     when it was due.  Not declared in BENCHMARK.json: on
                     a 2-vCPU VM its latencies move by a third with a few
                     percent of host CPU steal (the server's two domains
                     wait on each other), so run-to-run spread exceeds
                     any bound the benchmark may set.  Run it by hand to
                     check that a solver change leaves it unchanged.

End-to-end metrics: setup_s (median of 20-odd server spawn -> first
ping, or CLI spawn -> first check done), throughput_ops_s (correct operations
per second), latency_p50_ms, latency_tail_ms (the highest of p90/p75/p50
with at least ten samples beyond it; percentile and count are in the
report), ok_ratio (1 - error rate; every error, busy/shed/refused reply
and failed check counts against it; the error rate and failures by class
are in the report), heap_peak_mb (the bench process in-process, the
server's runtime.gc.top_heap_words otherwise).

The four timing metrics are scaled to a reference host speed.  The
benchmark runs on shared VMs whose speed moves by half or more from one
run to the next (CPU steal, neighbours on the same cache and memory
bus), far more than any change worth detecting.  So a probe process
(probe.ml: fixed allocation-heavy work, no DART code, no shared heap)
is timed after every set-up, after every repair-batch document and
between validation sessions, while nothing else of the benchmark runs;
each timing is then multiplied by (reference probe time / the run's
probe time), rates divided (see PROBE below for the shape and summary
each workload uses).  A change to the program cannot move the probe, so
a slower program still reads slower; a slower host does not.  The
figures as measured, the probe summary and the scale factor are in the
report (notes.as_measured, notes.probe, notes.host_scale_*) and in
result.json.  ingest-detect is not scaled.

Per-layer metrics are averages per operation over the traced pass.
Effort counts come from the returned Solver.stats and the LP counters in
process (repair-batch) or from deltas of the server's metrics exposition
(wire workloads).  A metric reads 0 on a workload where its layer does
no work (no solve on ingest-detect, no server or WAL on repair-batch) or
where it cannot be observed from outside the process doing the work
(repair.solve_ms, lp.warm_hit_ratio and numeric.* are in-process only).
Acquisition and constraint timings of the wire workloads come from an
in-process replay of their documents through the same calls.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("repair-batch", "ingest-detect", "validate-sessions")
CLI = "_build/default/bin/dart_cli.exe"
PB = "_build/default/perfbench/pb.exe"
PROBE_EXE = "_build/default/perfbench/probe.exe"
OUT = os.path.join("perfbench", "out")
LEDGER = os.path.join(OUT, "ledger.json")

# How each workload's timings are scaled to a reference host (see the
# header): the probe (probe.ml) run in the shape of the process that
# does the work, how its samples are summarised, and the probe time the
# reported figures assume, about its typical time on the two-vCPU Xeon
# VM the benchmark was tuned on.
#  - repair-batch runs on one domain, and steal or a busy neighbour
#    slows it in proportion to the CPU they take, which moves every
#    sample: the median, which one stalled probe sample does not move.
#  - a server's round stalls each time a stolen vCPU holds up a
#    collection of its two domains: those rare long stalls are what the
#    two-domain probe is there to catch, so its mean counts them as
#    often as they happen.
#  - set-up is a process starting, one busy thread, in both workloads:
#    each set-up sample is scaled by the one-domain probe sample taken
#    right after it ("paired"), which also catches a steal burst of that
#    moment, and setup_s is the median of the scaled samples.
# ingest-detect's open loop leaves no idle moment to probe in, so its
# timings stay as measured.
PROBE = {"repair-batch": ("one_domain", "median", 3.0),
         "validate-sessions": ("two_domains", "mean", 5.0),
         "set-up": ("one_domain", "paired", 3.0)}

# An open-loop run is invalid, not slow, when its arrival generator ran
# late by a visible share of the schedule itself: when the 99th
# percentile of its own lateness exceeds this share of the gap between
# two arrivals on one connection.
LAG_LIMIT_SHARE_OF_GAP = 0.25


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for p in ("dune-project", "bin/dart_cli.ml", "lib", "perfbench/dune", "BENCHMARK.json"):
        if not os.path.exists(p):
            die("not a DART source checkout (missing %s); run from its root" % p)
    if shutil.which("dune") is None:
        die("dune is not installed")


def build():
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/dart_cli.exe",
                        "./perfbench/pb.exe", "./perfbench/probe.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=700)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        die("build failed", 1)


def source_fingerprint():
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py")) or f == "dune":
                    paths.append(os.path.join(d, f))
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(".git"):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def declared(kind):
    """(name, unit) of every metric BENCHMARK.json declares of `kind`."""
    with open("BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            f = [int(x) for x in fh.readline().split()[1:]]
        return f[7] if len(f) > 7 else 0, sum(f)
    except (OSError, ValueError):
        return None


def host_speed_ms():
    """Best of five timings of a fixed integer loop: how fast this host
    runs one core right now, to tell a slower host from a slower
    program (host speed has been seen to shift by half at zero steal)."""
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        x = 0
        for i in range(200000):
            x = (x * 31 + i) & 0xFFFFFFF
        best = min(best, (time.perf_counter() - t) * 1000.0)
    return best


def run_generator(args, rundir):
    cmd = [PB, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI, "--probe", PROBE_EXE, "--dir", rundir]
    with open(os.path.join(rundir, "pb.log"), "w") as log:
        p = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                             start_new_session=True)
        try:
            rc = p.wait(timeout=args.seconds + 120)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            # pb.exe's server children share its process group: stop
            # whatever is left of it and wait until it is gone
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except OSError:
                pass
            p.wait()
            for _ in range(500):
                try:
                    os.killpg(p.pid, 0)
                except OSError:
                    break
                time.sleep(0.01)
    if rc != 0:
        with open(os.path.join(rundir, "pb.log")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        die("pb.exe failed (exit %s)" % rc, 1)
    with open(os.path.join(rundir, "raw.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- #
# Server metrics exposition                                        #
# ---------------------------------------------------------------- #

SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def prom(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        m = SAMPLE.match(line.strip())
        if m and not m.group(2):
            try:
                out[m.group(1)] = float(m.group(3))
            except ValueError:
                pass
    return out


def prom_delta(p):
    a, b = prom(p["metrics_before"]), prom(p["metrics_after"])
    return {k: b[k] - a.get(k, 0.0) for k in b}


def hist_mean(d, name):
    n = d.get(name + "_count", 0.0)
    return d.get(name + "_sum", 0.0) / n if n else 0.0


# ---------------------------------------------------------------- #
# Metrics                                                          #
# ---------------------------------------------------------------- #

def latencies(ops):
    """Latencies of the successful operations the latency metrics time.
    A validation session's last round ends it and returns no
    suggestions, so it is no wait for new suggestions: it is counted and
    checked, but not timed (at ~1 ms against tens of ms it would put the
    median on the boundary between two populations)."""
    return [o["latency_ms"] for o in ops if o["status"] == "ok" and o["kind"] != "final"]


def end_to_end(w, raw, p):
    ops = p["ops"]
    acct = stats.account([o["status"] for o in ops])
    lat = latencies(ops) or [0.0]
    tp, tv, tn = stats.tail(lat)
    ok = acct["attempted"] - acct["failed"]
    if w == "repair-batch":
        heap = p["heap_peak_mb"]
    else:
        heap = prom(p["metrics_after"]).get("runtime_gc_top_heap_words", 0.0) * 8 / 1048576
    shape, summary, ref_ms = PROBE.get(w, (None, None, None))
    if shape:
        probe = p["probe_ms"][shape]
        run_scale = stats.host_scale(probe, ref_ms, summary)
        shape_s, _, ref_s = PROBE["set-up"]
        setup = stats.paired_scaled(raw["setup_ms"], raw["setup_probe_ms"][shape_s], ref_s)
    else:
        probe, run_scale, setup = [], 1.0, raw["setup_ms"]
    measured = {
        "setup_s": stats.median(raw["setup_ms"]) / 1000.0,
        "throughput_ops_s": ok / (p["elapsed_ms"] / 1000.0),
        "latency_p50_ms": stats.median(lat),
        "latency_tail_ms": tv,
    }
    m = {
        "setup_s": stats.median(setup) / 1000.0,
        "throughput_ops_s": measured["throughput_ops_s"] / run_scale,
        "latency_p50_ms": measured["latency_p50_ms"] * run_scale,
        "latency_tail_ms": measured["latency_tail_ms"] * run_scale,
        "ok_ratio": ok / acct["attempted"] if acct["attempted"] else 0.0,
        "heap_peak_mb": heap,
    }
    notes = {"tail_percentile": tp, "tail_samples_beyond": tn,
             "latency_samples": len(lat), "error_rate": acct["error_rate"],
             "failures_by_class": acct["by_class"],
             "host_scale_run": run_scale,
             "host_scale_setup": m["setup_s"] / measured["setup_s"],
             "probe": "%s %s of %d samples: %.4f ms" % (
                 shape, summary, len(probe),
                 stats.median(probe) if summary == "median" else stats.mean(probe))
             if probe else "none",
             "as_measured": measured}
    if w == "validate-sessions":
        notes["open_ms_p50"] = stats.median(p["open_ms"]) if p["open_ms"] else 0.0
        rps = p["rounds_per_session"]
        notes["operator_rounds"] = sum(rps) / len(rps) if rps else 0.0
        notes["sessions"] = len(rps)
    return m, acct, notes


def per_layer(w, raw, passes):
    """Per-layer numbers of the traced pass.  A metric stays 0 on a
    workload where its layer does no work or cannot be observed from
    outside the process that does it (see the header)."""
    base, traced = passes[0], passes[1]
    ops = traced["ops"]
    n = max(1, len(ops))
    spans = [tuple(s) for s in raw["spans"]]
    by_name, n_ops, bad = stats.per_op_check(spans)
    # acquisition/constraints attribution: the traced repairs, or the
    # in-process replay of the wire workloads' documents
    layer_ops = ops if w == "repair-batch" else raw["replay"]
    n_layer = max(1, len(layer_ops))

    def tot(key, src=layer_ops):
        return sum(o["layer"].get(key, 0) for o in src)

    matched, unmatched = tot("wrapper.rows_matched"), tot("wrapper.rows_unmatched")
    m = {
        "acquire.convert_ms": by_name.get("acquire.convert", 0.0) / n_layer,
        "acquire.extract_ms": by_name.get("acquire.extract", 0.0) / n_layer,
        "acquire.dbgen_ms": by_name.get("acquire.dbgen", 0.0) / n_layer,
        "wrapper.match_ratio": matched / max(1, matched + unmatched),
        "wrapper.cell_repairs": tot("wrapper.cell_repairs") / n_layer,
        "constraints.detect_ms": by_name.get("constraints.detect", 0.0) / n_layer,
        "constraints.ground_ms": by_name.get("constraints.ground", 0.0) / n_layer,
        "constraints.ground_rows": tot("ground_rows") / n_layer,
        "constraints.cells": tot("cells") / n_layer,
        "trace.spans_per_op": len(spans) / max(1, n_ops),
    }
    if w == "repair-batch":
        # effort counts from the returned Solver.stats and the LP/MILP
        # counters read around each operation
        nodes, pivots = tot("nodes"), tot("pivots")
        pruned = (tot("milp.prune.bound") + tot("milp.prune.infeasible")
                  + tot("milp.prune.unbounded"))
        warm = tot("warm_starts")
        solve_self = by_name.get("repair.solve", 0.0)
        m.update({
            "repair.solve_ms": solve_self / n,
            "repair.solve_share": solve_self / (sum(o["latency_ms"] for o in ops) or 1.0),
            "repair.components": tot("components") / n,
            "repair.violated_components": tot("violated_components") / n,
            "repair.cells_changed": tot("cells_changed") / n,
            "repair.m_retries": tot("m_retries") / n,
            "milp.nodes_per_component": nodes / max(1, tot("violated_components")),
            "milp.pruned_share": pruned / max(1, nodes),
            "lp.pivots_per_node": pivots / max(1, nodes),
            "lp.warm_hit_ratio": 1.0 - tot("warm_fallbacks") / warm if warm else 0.0,
            "lp.refactorizations": tot("lp.simplex.refactorizations") / n,
            "lp.dense_fallbacks": tot("lp.simplex.dense_fallbacks") / n,
            "lp.bland_fallbacks": tot("lp.simplex.bland_fallbacks") / n,
            "numeric.us_per_pivot": 1000.0 * tot("solve_ms") / max(1, pivots),
            "numeric.alloc_words_per_pivot": tot("solve_minor_words") / max(1, pivots),
        })
        k = min(len(base["ops"]), len(ops))
        # paired: both passes start from document 0
        m["trace.overhead_ms"] = stats.median(
            [b["latency_ms"] - a["latency_ms"]
             for a, b in zip(base["ops"][:k], ops[:k])] or [0.0])
    else:
        # the server's own counters, as deltas over the traced pass
        d = prom_delta(traced)
        nodes, pivots = d.get("milp_nodes", 0.0), d.get("lp_simplex_pivots", 0.0)
        solved = d.get("repair_components_solved", 0.0)
        hits, misses = d.get("repair_cache_hits", 0.0), d.get("repair_cache_misses", 0.0)
        pruned = (d.get("milp_prune_bound", 0.0) + d.get("milp_prune_infeasible", 0.0)
                  + d.get("milp_prune_unbounded", 0.0))
        wire = [s[5] - s[4] for s in spans if s[3].startswith("wire.")]
        service = hist_mean(d, "server_latency_ms")
        m.update({
            "repair.violated_components": solved / n,
            "repair.m_retries": d.get("repair_big_m_retries", 0.0) / n,
            "repair.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "repair.warm_fallbacks": d.get("repair_warm_fallbacks", 0.0),
            "milp.nodes_per_component": nodes / max(1.0, solved),
            "milp.pruned_share": pruned / max(1.0, nodes),
            "lp.pivots_per_node": pivots / max(1.0, nodes),
            "lp.refactorizations": d.get("lp_simplex_refactorizations", 0.0) / n,
            "lp.dense_fallbacks": d.get("lp_simplex_dense_fallbacks", 0.0) / n,
            "lp.bland_fallbacks": d.get("lp_simplex_bland_fallbacks", 0.0) / n,
            "server.queue_wait_ms": hist_mean(d, "server_queue_wait_ms"),
            "server.service_ms": service,
            "server.wire_ms": (sum(wire) / len(wire) - service) if wire else 0.0,
            "server.shed": d.get("server_shed", 0.0),
            "server.busy": d.get("server_busy_rejections", 0.0),
            "server.coalesced": d.get("server_coalesced", 0.0),
            "server.bytes_in_per_op": d.get("server_bytes_in", 0.0) / n,
            "trace.overhead_ms": (stats.median(latencies(ops) or [0.0])
                                  - stats.median(latencies(base["ops"]) or [0.0])),
        })
        if w == "validate-sessions":
            rounds = max(1, sum(1 for o in ops if o["kind"] in ("round", "final")))
            rps = base["rounds_per_session"]
            m.update({
                "durable.wal_appends_per_round": d.get("durable_wal_appends", 0.0) / rounds,
                "durable.wal_bytes_per_round": d.get("durable_wal_bytes", 0.0) / rounds,
                "session.open_ms_p50": stats.median(base["open_ms"]) if base["open_ms"] else 0.0,
                "session.operator_rounds": sum(rps) / len(rps) if rps else 0.0,
            })
    notes = {"span_ops_checked": n_ops, "self_time_exceeds_wall": bad,
             "self_ms_by_layer": by_name}
    return m, stats.account([o["status"] for o in ops]), notes, not bad


# ---------------------------------------------------------------- #
# Determinism ledger                                               #
# ---------------------------------------------------------------- #

def det_entries(w, seed, ops):
    out = {}
    for o in ops:
        if not o["det"]:
            continue
        # a re-upload carries its first upload's index and shares its key
        # (the run itself checks that the two agree)
        out["%s/%d/d%d" % (w, seed, o["doc"])] = o["det"]
    return out


def check_ledger(fp, entries):
    """Compare deterministic counts with those an earlier run of the same
    source recorded; record new ones.  Returns the drifted keys."""
    try:
        with open(LEDGER) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    book = ledger.setdefault(fp, {})
    drift = []
    for k, v in entries.items():
        if k in book and book[k] != v:
            drift.append("%s: %s recorded, %s now" % (k, book[k], v))
        book.setdefault(k, v)
    ledger = {fp: book}            # other builds' entries are stale
    tmp = LEDGER + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh)
    os.replace(tmp, LEDGER)
    return drift


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    check_checkout()
    t_build = time.time()
    build()
    build_s = time.time() - t_build
    rundir = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    speed0, ticks0 = host_speed_ms(), cpu_ticks()
    raw = run_generator(args, rundir)
    ticks1, speed1 = cpu_ticks(), host_speed_ms()
    w = args.workload
    passes = raw["passes"]

    if args.trace:
        values, acct, notes, honest = per_layer(w, raw, passes)
    else:
        values, acct, notes = end_to_end(w, raw, passes[0])
        honest = True
    metrics = [(k, values.get(k, 0.0), u)
               for k, u in declared("per_layer" if args.trace else "end_to_end")]

    fp = source_fingerprint()
    drift = list(raw["drift"])
    for p in passes:
        drift += check_ledger(fp, det_entries(w, args.seed, p["ops"]))

    lags = [x for p in passes for x in p.get("lags_ms", [])]
    lag_limit_ms = 0.0
    if lags:
        gap_ms = 1000.0 * 2 / raw["facts"]["rate_per_s"]   # two connections
        lag_limit_ms = LAG_LIMIT_SHARE_OF_GAP * gap_ms
    gen_valid = not lags or stats.percentile(lags, 99) <= lag_limit_ms
    facts = dict(raw["facts"])
    facts.update({
        "commit": commit(), "source_fingerprint": fp, "nproc": os.cpu_count(),
        "build_s": round(build_s, 3),
        "generator_lag_ms_p50": stats.median(lags) if lags else 0.0,
        "generator_lag_ms_p99": stats.percentile(lags, 99) if lags else 0.0,
        "generator_lag_limit_ms": lag_limit_ms, "generator_valid": gen_valid,
        # CPU time the hypervisor gave to other guests while this run
        # ran: timings of runs with very different steal do not compare
        "host_steal_share": ((ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
                             if ticks0 and ticks1 else None),
        "host_loop_ms_before": speed0, "host_loop_ms_after": speed1,
    })
    all_ops = [o for p in passes for o in p["ops"]]
    check_failed = [o for o in all_ops if o["status"] == "check_failed"]
    correct = not check_failed and not drift and gen_valid and honest

    result = {
        "correct": correct, "attempted": acct["attempted"], "failed": acct["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, v, u in metrics},
    }
    report = {"facts": facts, "result": result, "notes": notes, "drift": drift,
              "failed_checks": [(o["doc"], o["scen"], o["detail"]) for o in check_failed]}
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print("facts: " + json.dumps(facts, sort_keys=True))
    for k, v, u in metrics:
        print("  %-32s %14.4f %s" % (k, v, u))
    for k, v in notes.items():
        if k != "self_ms_by_layer":
            print("  %-32s %s" % (k, v))
    if acct["failed"]:
        print("failures (counted, not hidden): %s" % json.dumps(acct["by_class"]))
        for o in [o for o in all_ops if o["status"] != "ok"][:10]:
            print("  op %d doc %d %s: %s %s" % (o["id"], o["doc"], o["scen"],
                                                 o["status"], o["detail"]))
    for d in drift:
        print("DRIFT: " + d)
    if not gen_valid:
        print("INVALID: the arrival generator fell behind its schedule "
              "(p99 lateness %.1f ms > %.1f ms)" % (stats.percentile(lags, 99), lag_limit_ms))
    if not honest:
        print("INVALID: span self times exceed wall time for ops %s" % notes["self_time_exceeds_wall"])
    print(json.dumps(result))
    sys.exit(1 if drift or not gen_valid else 0)


if __name__ == "__main__":
    main()
