"""ramshift benchmark: one client in a closed loop runs a verification
campaign, pass after pass, for a fixed time.

Run from the repository root:

    python3 benchmarks/run.py --workload ramanujan_sweep --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and README.md in this directory):
ramanujan_sweep, datum_certify, large_levels, mixing_exact.

Each run is a fresh process.  Before the timed passes it measures set-up
(interpreter start, import of `ramshift.cli` and numpy, and an untimed
warm-up on the same campaign at a tiny size) in SETUP_SAMPLES child
processes, one after another, and then warms itself up the same way.  Then it repeats the campaign until `--seconds` have passed,
checking every output, and reports medians over passes.

With `--trace 0` the metrics are the end-to-end ones (wall_s, cpu_s,
peak_rss_mb, setup_s, ok_frac).  With `--trace 1` untraced and traced
passes alternate and the metrics are the per-layer ones of tracing.py; the
spans of the last traced pass are written to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a summary
with the environment, sample counts and quartiles.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description="ramshift benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)  # set-up sample child
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "openblas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def scratch_dir() -> str:
    return tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)


def warm_up(workloads, workload: str, seed: int, workdir: str) -> None:
    """Untimed pass at a tiny size: loads every code path the timed passes use."""
    for result in workloads.run_pass(workloads.campaign(workload, seed, tiny=True), workdir):
        if result.problems:
            print(f"warm-up {result.name}: {result.problems[:3]}", file=sys.stderr)


def probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def failures(passes) -> tuple[int, int]:
    """(operations attempted, operations failed) over all passes."""
    return sum(len(p) for p in passes), sum(1 for p in passes for r in p if r.problems)


def report_failures(passes) -> None:
    """Print the first problems of each failing operation once."""
    reported = set()
    for results in passes:
        for r in results:
            if r.problems and r.name not in reported:
                reported.add(r.name)
                print(f"FAILED {r.name}: {r.problems[:3]}", file=sys.stderr)


def repeat(seconds: float, body) -> None:
    """Closed loop: call body() until `seconds` have passed (at least once)."""
    start = time.perf_counter()
    while True:
        body()
        if time.perf_counter() - start >= seconds:
            return


def pass_wall(results) -> float:
    return sum(r.wall_s for r in results)


def end_to_end(workloads, ops, workdir, reference, seconds, setup) -> tuple[list, dict, dict]:
    passes = []
    repeat(seconds, lambda: passes.append(workloads.run_pass(ops, workdir, reference)))
    attempted, failed = failures(passes)
    samples = {
        "wall_s": [pass_wall(p) for p in passes],
        "cpu_s": [sum(r.cpu_s for r in p) for p in passes],
        "setup_s": setup,
    }
    metrics = {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": (1 - failed / attempted, "frac"),
    }
    op_medians = {op.name: statistics.median(r.wall_s for p in passes for r in p if r.name == op.name)
                  for op in ops}
    return passes, metrics, {"samples": {k: quartiles(v) for k, v in samples.items()},
                             "op_wall_s": op_medians}


def per_layer(workloads, ops, workdir, reference, seconds, workload, seed) -> tuple[list, dict, dict]:
    import tracing

    untraced, traced, recorders = [], [], []

    def body():
        untraced.append(workloads.run_pass(ops, workdir, reference))
        rec = tracing.Recorder()
        with tracing.installed(rec):
            traced.append(workloads.run_pass(ops, workdir, reference, on_op=rec.request))
        recorders.append(rec)

    repeat(seconds, body)
    summaries = [tracing.summarise(rec) for rec in recorders]
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    untraced_wall = statistics.median(pass_wall(p) for p in untraced)
    metrics = {}
    for name, unit, source, _key in tracing.PER_LAYER:
        if source == "pass":
            continue
        values = [s[name] for s in summaries]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                print(f"count {name} did not repeat across passes: {values}", file=sys.stderr)
            metrics[name] = (values[0], unit)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "frac")
    write_spans(recorders[-1], workload, seed)
    return untraced + traced, metrics, {"passes_traced": len(traced)}


def write_spans(rec, workload: str, seed: int) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    t0 = rec.spans[0][2] if rec.spans else 0.0
    spans = [[parent, group, start - t0, end - t0] for parent, group, start, end in rec.spans]
    with open(out / f"spans_{workload}_seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["parent", "group", "start_s", "end_s"], "spans": spans}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ramshift" / "__init__.py").is_file():
        print(f"error: no ramshift sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.probe:
        import workloads

        workdir = scratch_dir()
        try:
            warm_up(workloads, args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0

    import ramshift
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if Path(ramshift.__file__).resolve().parent != ROOT / "src" / "ramshift":
        print(f"error: imported ramshift from {ramshift.__file__}, not this checkout", file=sys.stderr)
        return 2
    setup = [] if args.trace else [probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    reference = None
    if args.seed == 0:
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]

    ops = workloads.campaign(args.workload, args.seed)
    workdir = scratch_dir()
    try:
        warm_up(workloads, args.workload, args.seed, workdir)
        if args.trace:
            passes, metrics, extra = per_layer(workloads, ops, workdir, reference, args.seconds,
                                               args.workload, args.seed)
        else:
            passes, metrics, extra = end_to_end(workloads, ops, workdir, reference, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_failures(passes)
    attempted, failed = failures(passes)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "passes": len(passes), "env": environment(), **extra}
    print("summary: " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
