"""Benchmark of fareymaps: three workloads, each output checked, one command.

    python3 benchmarks/run.py --workload export --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke      # one pass of each workload, seed 2
    python3 benchmarks/run.py --table      # per-layer times at levels 11..101

Run from anywhere; the library is imported from ../src, never from an
installed copy.  Each workload runs in one fresh worker process with one
thread, as a closed loop with one client: an op starts when the previous one
has finished and been checked.  The last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics: setup_s (median over several
launches of a fresh interpreter, from launch until the first op is ready),
op_p50_ms, op_tail_ms, ops_per_s and peak_rss_mb.  The op clock covers only
the calls into the library.  Each time is scaled to a fixed host speed by
a reference loop timed just before it (see `reference_ms`); the raw p50 and
tail are printed beside them.
The tail percentile is fixed per workload, and a run goes on past
`--seconds` until ten untraced ops lie beyond it.  `--trace 1` reports the
per-layer metrics instead: calls, p50 and busy time of every public call,
self time per module, per-op counts and the tracing overhead.  Passes
alternate between untraced and traced, and the spans of the traced passes
are written to .bench_out/.  See benchmarks/README.md for what each
workload is for and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 10  # besides the launch of the measuring worker
SMOKE_SEED = 2
TABLE_LEVELS = (11, 31, 61, 101)
TABLE_REPEATS = 3
TABLE_DIAMETER_MAX = 31  # all-pairs diameter takes about a minute at level 61
REFERENCE_MS = 4.0  # reference_ms() on the host the benchmark was tuned on
WORKER_GRACE_S = 100  # a run ends within --seconds plus one pass, well inside this
# One thread per worker: importing numpy would otherwise start a BLAS thread
# pool, which the library never uses.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


# -- statistics ---------------------------------------------------------------

def percentile(samples, q) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def reference_ms() -> float:
    """Time of a fixed pure-Python loop that never touches the library.

    The shared host alternates between a fast state and one up to 1.7x
    slower, in phases from under a second to minutes.  Over six 20 s runs
    of the paper workload the raw op p50 read 45 to 62 ms; with each op's
    time multiplied by REFERENCE_MS over this loop's time just before it,
    the p50 read 40.4 to 41.1 ms (export: raw 260-320 ms, scaled 249-275
    ms).  Every time metric is scaled that way."""
    start = perf_counter()
    table = {}
    for i in range(20000):
        table[i % 977] = table.get(i % 977, 0) + 3 * i
    sorted(table.items())
    return (perf_counter() - start) * 1000


def scaled(samples) -> list[float]:
    """(time, reference_ms() just before it) pairs, as times at REFERENCE_MS."""
    return [t * REFERENCE_MS / ref for t, ref in samples]


# -- worker: one process that sets up, then measures --------------------------

def _import_library():
    sys.path.insert(0, str(SRC))
    import fareymaps

    if not Path(fareymaps.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fareymaps imported from {fareymaps.__file__}, not {SRC}")


def worker(args) -> int:
    _import_library()
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    workloads.golden()
    inputs = spec.make_pass(args.seed, 0)
    print("ready", flush=True)
    if args.worker == "probe":
        return 0
    result = measure(workloads, spec, args, inputs)
    print(json.dumps(result))
    return 0


def measure(workloads, spec, args, inputs) -> dict:
    from tracing import Direct, Tracer

    traced = bool(args.trace)
    direct, tracer = Direct(), Tracer()
    latencies = {False: [], True: []}  # (op clock, reference_ms() just before) in ms, by traced
    counts = defaultdict(int)
    problems = []
    attempted = failed = repeats = 0
    seen_levels = set()
    # Enough untraced ops for ten beyond the tail percentile.
    min_ops = -(-1000 // (100 - spec.tail))
    start = perf_counter()
    index = 0
    while True:
        caller = tracer if traced and index % 2 else direct
        for inp in inputs:
            op_id = attempted
            attempted += 1
            levels = spec.levels(inp)
            repeats += seen_levels.issuperset(levels)
            seen_levels.update(levels)
            ref = reference_ms()
            t0 = perf_counter()
            try:
                with caller.op(op_id):
                    out = spec.op(caller.call, inp)
            except Exception as exc:  # a failed op is counted, and the run goes on
                traceback.print_exc()
                failed += 1
                problems.append(f"op {op_id} {inp}: {exc!r}")
                continue
            latencies[caller is tracer].append(((perf_counter() - t0) * 1000, ref))
            issues = spec.check(inp, out)
            for name, value in spec.counts(inp, out).items():
                counts[name] += value
            del out
            if issues:
                failed += 1
                problems.extend(f"op {op_id}: {issue}" for issue in issues)
        index += 1
        if index == 1:  # no level has been built before in this process
            first_pass = scaled(latencies[False])
        timed_out = (perf_counter() - start >= args.seconds and index >= 1 + traced
                     and len(latencies[False]) >= min_ops)
        if index == args.passes or (args.passes is None and timed_out):
            break
        inputs = spec.make_pass(args.seed, index)
    elapsed = perf_counter() - start

    raw = [ms for ms, _ in latencies[False]]
    plain = scaled(latencies[False])
    info = {
        "passes": index,
        "elapsed_s": elapsed,
        "ops_untraced": len(raw),
        "tail_percentile": spec.tail,
        "raw_p50_ms": statistics.median(raw),
        "raw_tail_ms": percentile(raw, spec.tail),
        "first_pass_p50_ms": statistics.median(first_pass),
        "repeat_share": repeats / attempted,
        "problems": problems[:20],
    }
    if not traced:
        metrics = {
            "op_p50_ms": (statistics.median(plain), "ms"),
            "op_tail_ms": (percentile(plain, spec.tail), "ms"),
            "ops_per_s": (1000 * len(plain) / sum(plain), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(workloads, tracer, latencies, counts, attempted, repeats)
        metrics["ops.first_pass_p50_ms"] = (info["first_pass_p50_ms"], "ms")
        path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        info["spans"] = str(path.relative_to(ROOT))
    return {"attempted": attempted, "failed": failed, "info": info,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(workloads, tracer, latencies, counts, attempted, repeats) -> dict:
    durations = defaultdict(list)
    for name, start, end, _, _ in tracer.spans:
        durations[name].append((end - start) * 1000)
    self_ms = defaultdict(float)
    for name, seconds in tracer.self_times():
        self_ms[name.split(".")[0]] += seconds * 1000
    traced_ops = len(durations["op"])
    metrics = {}
    for name in workloads.CALLS:
        d = durations[name]
        metrics[f"{name}.calls"] = (len(d), "count")
        metrics[f"{name}.ms_p50"] = (statistics.median(d) if d else 0.0, "ms")
        metrics[f"{name}.ms_total"] = (sum(d), "ms")
    for module in workloads.MODULES:
        metrics[f"{module}.self_ms_per_op"] = (self_ms[module] / traced_ops, "ms")
    metrics["bench.glue_ms_per_op"] = (self_ms["op"] / traced_ops, "ms")
    for name, unit in workloads.COUNTS.items():
        metrics[name] = (counts[name] / attempted, unit)
    metrics["ops.repeat_share"] = (repeats / attempted, "ratio")
    untraced_p50 = statistics.median(scaled(latencies[False]))
    traced_p50 = statistics.median(scaled(latencies[True]))
    metrics["trace.untraced_op_p50_ms"] = (untraced_p50, "ms")
    metrics["trace.op_p50_ms"] = (traced_p50, "ms")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
    return metrics


# -- parent: launches workers and reports ------------------------------------

def _launch(*worker_args):
    """Start a worker; return it with the seconds from launch to ready."""
    cmd = [sys.executable, str(HERE / "run.py"), *map(str, worker_args)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, setup


def _collect(proc, timeout) -> str:
    """The worker's remaining output; the worker has ended either way."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def bench(workload, seed, seconds, trace, launches=SETUP_LAUNCHES, passes=None) -> dict:
    common = ["--workload", workload, "--seed", seed]
    setups = []  # (seconds to ready, reference_ms() just before)
    for _ in range(0 if trace else launches):
        ref = reference_ms()
        proc, setup = _launch("--worker", "probe", *common)
        _collect(proc, 60)
        setups.append((setup, ref))
    extra = ["--passes", passes] if passes else []
    ref = reference_ms()
    proc, setup = _launch("--worker", "run", *common, "--seconds", seconds,
                          "--trace", trace, *extra)
    out = _collect(proc, seconds + WORKER_GRACE_S)
    result = json.loads(out.strip().splitlines()[-1])
    setups.append((setup, ref))
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled(setups)), "unit": "s"}
        result["info"]["setup_launches"] = len(setups)
    return result


def report(workload, seed, trace, result) -> None:
    info = result["info"]
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print(f"  {result['attempted']} ops in {info['passes']} passes over {info['elapsed_s']:.1f} s;"
          f" failed {result['failed']}, failed_ratio {result['failed'] / result['attempted']:.4f}")
    for problem in info["problems"]:
        print(f"  FAILED {problem}")
    print(f"  op_tail_ms is p{info['tail_percentile']} of {info['ops_untraced']} untraced ops;"
          f" level repeat share {info['repeat_share']:.3f}")
    print(f"  raw op latency, before scaling to the reference host speed:"
          f" p50 {info['raw_p50_ms']:.2f} ms, p{info['tail_percentile']} {info['raw_tail_ms']:.2f} ms;"
          f" scaled p50 of the first pass, before any level repeats,"
          f" {info['first_pass_p50_ms']:.2f} ms")
    if "setup_launches" in info:
        print(f"  setup_s is the median of {info['setup_launches']} launches")
    if "spans" in info:
        print(f"  spans written to {info['spans']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:14.4f} {m['unit']}")


def final_line(result) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def smoke(seed) -> int:
    """One pass of every workload in each mode (two when traced, one of them
    untraced); every metric BENCHMARK.json names, with its unit; no failed op."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    bad = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = bench(workload, seed, 0, trace, launches=1, passes=1 + trace)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            where = f"{workload} trace {trace}"
            if got != wanted[trace]:
                bad.append(f"{where}: metrics differ from BENCHMARK.json:"
                           f" {sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if result["failed"] or not result["attempted"]:
                bad.append(f"{where}: {result['failed']} of {result['attempted']} ops failed:"
                           f" {result['info']['problems']}")
            print(f"smoke {where}: {result['attempted']} ops, failed_ratio"
                  f" {result['failed'] / max(result['attempted'], 1):.1f}", flush=True)
    for line in bad:
        print(f"FAIL {line}")
    print("smoke ok" if not bad else "smoke FAILED")
    return 1 if bad else 0


def table() -> int:
    """Traced single calls at fixed levels, median of TABLE_REPEATS fresh maps."""
    _import_library()
    from fareymaps import FareyFraction, build_map, diameter, render_map, to_json
    from tracing import Tracer
    from workloads import ANCHOR

    tracer = Tracer()
    for n in TABLE_LEVELS:
        for r in range(TABLE_REPEATS):
            with tracer.op(n):
                m = tracer.call("maps.build_map", build_map, n)
                tracer.call("maps.faces", m.faces)
                tracer.call("maps.to_json", to_json, m)
                tracer.call("render.render_map", render_map, m)
                anchor = [FareyFraction.parse(s, n) for s in ANCHOR]
                tracer.call("maps.has_face.first", m.has_face, anchor)
                if n <= TABLE_DIAMETER_MAX and r == 0:
                    tracer.call("metrics.diameter", diameter, m)
    cells = defaultdict(list)
    for name, start, end, _, level in tracer.spans:
        cells[level, name].append((end - start) * 1000)
    columns = ("maps.build_map", "maps.faces", "maps.to_json", "render.render_map",
               "maps.has_face.first", "metrics.diameter")
    print("| level | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for n in TABLE_LEVELS:
        row = [f"{statistics.median(cells[n, c]):,.1f}" if cells[n, c] else "(not run)"
               for c in columns]
        print(f"| {n} | " + " | ".join(row) + " |")
    print(f"times in ms; median of {TABLE_REPEATS} fresh maps, diameter run once")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("export", "paper", "verify"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--worker", choices=("probe", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "fareymaps" / "__init__.py").is_file():
        print(f"error: no fareymaps sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    if args.smoke:
        return smoke(SMOKE_SEED if args.seed is None else args.seed)
    if args.table:
        return table()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, args.trace, result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
