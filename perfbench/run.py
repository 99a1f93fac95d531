#!/usr/bin/env python3
"""solidsum benchmark.

    python3 perfbench/run.py --workload analytic-2d --seed 1 --seconds 30 --trace 0

Run from a solidsum checkout; the package is imported from ``src/`` next to
this directory.  One process runs one operation at a time (a closed loop).
Every operation's result is checked against a reference the benchmark
computes itself (see ``workloads.py``).

``--trace 0`` runs the workload's pass of operations a fixed number of times,
with fresh seeded inputs each time, as many as ``--seconds`` holds at the
workload's pass budget, and reports the end-to-end metrics.  ``--trace 1``
runs one pass untraced and the same pass again traced, and reports per-layer
metrics and the tracing overhead; spans are written to ``.perfbench/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One pool thread: on 2 cores the lattice pass ran no faster with two BLAS
# threads, and its run-to-run spread was several times wider.
POOL_THREADS = 1
# Set-up in a fresh interpreter: import solidsum, build the workload and its
# first pass of inputs and references; prints the seconds taken.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import solidsum, workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])).passes(0)
print(time.perf_counter() - t0)
"""


def cap_thread_pools() -> int:
    """Cap the BLAS and OpenMP pools; takes effect only before numpy is first
    imported.  Returns the number of cores this process may use."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(min(POOL_THREADS, nproc))
    return nproc


def fresh_setup_s(workload: str, seed: int) -> float:
    """One set-up time measured in a separate interpreter (which has ended
    when this returns)."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def versions(nproc: int) -> str:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"nproc {nproc}; python {platform.python_version()}; numpy {numpy.__version__}; "
            f"scipy {scipy.__version__}; blas {blas}; "
            + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))


# ----------------------------- operations -----------------------------------

def run_op(op, tracer=None, op_id=0) -> dict:
    """Time one operation and check its result; never retried or dropped."""
    from solidsum import SolidSumError

    rec = {"label": op.label, "kind": op.kind, "group": op.group, "ok": False,
           "error": None, "crash": None, "detail": "", "points": 0}
    span = tracer.operation(op_id) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            result = op.call()
        rec["seconds"] = time.perf_counter() - t0
        rec["ok"], rec["detail"] = op.check(result)
        rec["points"] = int(getattr(result, "n_lattice_points", 0))
        rec["fingerprint"] = repr(result)
        if not rec["ok"]:
            rec["error"] = "OutsideReference"
    except Exception as exc:  # every failure is recorded against the operation
        rec.setdefault("seconds", time.perf_counter() - t0)
        rec["error"] = type(exc).__name__
        rec["detail"] = str(exc)
        rec["fingerprint"] = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, SolidSumError):
            rec["crash"] = traceback.format_exc()
    return rec


def run_pass(ops, tracer=None):
    start = time.perf_counter()
    records = [run_op(op, tracer, i) for i, op in enumerate(ops)]
    return time.perf_counter() - start, records


def timed_run(workload, first_pass, seconds):
    """A fixed number of whole passes, each with fresh inputs: as many as
    ``seconds`` holds at the workload's pass budget, and at least one.  The
    count depends only on ``seconds``, so the same seed always attempts the
    same operations."""
    n_passes = max(1, int(seconds // workload.pass_budget_s))
    pass_times, records = [], []
    for k in range(n_passes):
        elapsed, recs = run_pass(first_pass if k == 0 else workload.passes(k))
        pass_times.append(elapsed)
        records += recs
    return pass_times, records


# ----------------------------- reporting ------------------------------------

def timing_line(name, values) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"{name} p50 {statistics.median(values):.4f} s (n={n})"
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} s"
            break
    return text


def report_failures(records):
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['label']}: {r['error']}: {r['detail']}")
            if r["crash"]:
                print(r["crash"], end="")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.joinpath("solidsum").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: dict) -> list:
    """Counts must repeat exactly for the same seed and sources: compare with
    the counts an earlier traced run saved, or save them for the next one."""
    path = OUT / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        return [f"counts differ from an earlier traced run with seed {seed}: {diff}"] if diff else []
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def end_to_end(workload, first_pass, args, setup_s):
    pass_times, records = timed_run(workload, first_pass, args.seconds)
    vol = [r["seconds"] for r in records if r["kind"] == "volume"]
    ident = [r["seconds"] for r in records if r["kind"] == "identity"]
    failed = sum(not r["ok"] for r in records)
    points = sum(r["points"] for r in records)
    oracle_s = sum(r["seconds"] for r in records if r["points"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"passes {len(pass_times)}, operations {len(records)}, failed {failed}, "
          f"fail_frac {failed / len(records):.4f}")
    print(f"setup_s {setup_s:.4f} s; wall_s {statistics.median(pass_times):.4f} s per pass "
          f"(median of n={len(pass_times)})")
    print(timing_line("volume", vol))
    print(timing_line("identity", ident))
    if points:
        print(f"oracle_points_per_s {points / oracle_s:.1f} 1/s ({points} points in {oracle_s:.3f} s)")
    print(f"peak_rss_mb {rss_mb:.1f} MB")
    report_failures(records)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "volume_p50_s": (statistics.median(vol), "s"),
        "identity_p50_s": (statistics.median(ident), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    crashed = any(r["crash"] for r in records)
    return not crashed, len(records), failed, metrics


def per_layer(workload, ops, args):
    import tracing

    untraced_s, base = run_pass(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, records = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    layer, counts = tracing.layer_metrics(tracer, ops, records)
    layer[("trace.overhead_s", "s")] = traced_s - untraced_s
    layer[("trace.overhead_frac", "frac")] = (traced_s - untraced_s) / untraced_s
    layer[("trace.spans", "count")] = len(tracer.spans)
    layer[("trace.span_cost_us", "us")] = 1e6 * tracing.span_cost_s()

    problems = []
    if [r["fingerprint"] for r in base] != [r["fingerprint"] for r in records]:
        problems.append("tracing changed an operation's result")
    never = sorted(n for n in workload.expected if n in tracer.present and counts[n] == 0)
    if never:
        problems.append(f"traced functions never called (missed import site?): {never}")
    absent = sorted(set(tracing.TARGETS) - tracer.present)
    OUT.mkdir(exist_ok=True)
    problems += check_counts(args.workload, args.seed, counts)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(span_file, {"workload": args.workload, "seed": args.seed,
                             "ops": [op.label for op in ops]})

    failed = sum(not r["ok"] for r in records)
    print(f"untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s, "
          f"overhead {traced_s - untraced_s:+.4f} s over {len(tracer.spans)} spans; "
          f"{len(tracer.spans)} spans x {layer[('trace.span_cost_us', 'us')]:.2f} us per span = "
          f"{len(tracer.spans) * layer[('trace.span_cost_us', 'us')] * 1e-6:.4f} s")
    print(f"spans written to {span_file.relative_to(ROOT)}")
    if absent:
        print(f"not in the package, so not traced: {absent}")
    for (name, unit), value in layer.items():
        print(f"{name} {value:.6g} {unit}")
    report_failures(records)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    crashed = any(r["crash"] for r in base + records)
    return not (crashed or problems), len(records), failed, {n: (v, u) for (n, u), v in layer.items()}


def main(argv=None) -> int:
    nproc = cap_thread_pools()
    args = parse_args(argv)
    if not (SRC / "solidsum" / "__init__.py").is_file():
        print(f"error: no solidsum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import solidsum
    import_s = time.perf_counter() - t0
    if Path(solidsum.__file__).resolve().parent != (SRC / "solidsum").resolve():
        print(f"error: imported solidsum from {solidsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    first_pass = workload.passes(0)
    build_s = time.perf_counter() - t0

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(versions(nproc))
    print(f"this process: import {import_s:.4f} s, build {build_s:.4f} s")
    if args.trace:
        correct, attempted, failed, metrics = per_layer(workload, first_pass, args)
    else:
        setups = [import_s + build_s]
        setups += [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        print(f"set-up samples {' '.join(f'{v:.4f}' for v in setups)} s")
        correct, attempted, failed, metrics = end_to_end(workload, first_pass, args, statistics.median(setups))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
