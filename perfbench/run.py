#!/usr/bin/env python3
"""Benchmark of the spcm package, driven from outside the program.

One process per workload runs a closed loop, one operation at a time, on
inputs it generates from ``--seed``.  The first operation is a warm-up and is
not timed into the metrics; every operation, the warm-up included, passes
through the correctness gate in ``workloads.py``.

    python3 perfbench/run.py --workload fit-large --seed 10 --seconds 50 --trace 0
    python3 perfbench/run.py          # every workload, each in a fresh process

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics, the
tracing overhead included; its spans go to ``.bench_build/perfbench/``.
The last line of standard output is the result as one JSON object; the line
before it records the environment and the details behind the numbers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Only the standard library is imported up here: numpy and the package are
# imported inside set-up, which is timed, after the BLAS thread cap is set.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 10  # the README's blob seed
DEFAULT_SECONDS = 50
MIN_OPS = 11  # op_s_tail needs a percentile with ten samples beyond it
MAX_MEASURE_SECONDS = 120  # keeps a run under three minutes on a slow machine
SETUP_PROBES = 4  # fresh processes timing the set-up, besides the run's own


def cap_blas_threads() -> int:
    """Allow no more BLAS threads than this process may use cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def setup(name: str, seed: int, workdir: Path):
    """Import the package, make the inputs and write them; return (seconds, runner)."""
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    spcm = importlib.import_module("spcm")
    if not Path(spcm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: spcm was imported from {spcm.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS.get(name)
    if workload is None:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    runner = workloads.Runner(workload, seed, workdir)
    return time.perf_counter() - start, runner


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which one.

    With ten samples or fewer no percentile qualifies and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str:
    """The checked-out commit, read from the checkout's own .git if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "git_sha": git_sha(),
        "seed": seed,
    }


def measure(runner, seconds: float, trace: bool) -> dict:
    """Warm up, then run operations for ``seconds``; gate every one of them."""
    from workloads import gate, rep_err

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    from layers import op_metrics

    plain: list[float] = []
    traced: list[float] = []
    per_op: list[dict] = []
    errors: list[float] = []
    failures: list[str] = []
    attempted = 0
    references: dict[int, str | None] = {}

    def operation(op: int | None):
        nonlocal attempted
        if op is not None:
            tracer.install(op)
        try:
            elapsed, outcome = runner.operation()
        finally:
            if op is not None:
                tracer.uninstall()
        attempted += 1
        blob_means = runner.data.blob_means
        reasons = gate(outcome, blob_means, references.setdefault(runner.index, outcome.digest))
        if reasons:
            failures.append("; ".join(reasons))
        if len(outcome.representatives):
            errors.append(rep_err(outcome.representatives, blob_means))
        if op is not None:
            per_op.append(op_metrics(tracer.spans, tracer.op_spans(op), outcome.runtime_warnings,
                                     outcome.bytes_written))
        return elapsed

    operation(None)  # warm-up on input set 0: lazy imports, first-touch allocations
    start = time.perf_counter()
    k = 0
    while True:
        runner.prepare(k)
        if trace:
            for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
                (traced if is_traced else plain).append(operation(k if is_traced else None))
        else:
            plain.append(operation(None))
        k += 1
        elapsed = time.perf_counter() - start
        last = elapsed / k
        if elapsed >= seconds and (trace or len(plain) >= MIN_OPS):
            break
        if elapsed + last > MAX_MEASURE_SECONDS:
            break

    return {
        "plain": plain, "traced": traced, "per_op": per_op, "errors": errors, "failures": failures,
        "attempted": attempted, "missing": tracer.missing if tracer else [], "tracer": tracer,
    }


def run_workload(args) -> int:
    threads = cap_blas_threads()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, runner = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(setup_s)
            return 0
        setup_samples = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        m = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from layers import LAYERS
    from workloads import REP_ERR_LIMIT

    plain = m["plain"]
    n_points = int(runner.data.points.shape[0])
    details = {
        "workload": args.workload,
        "env": environment(args.seed, threads),
        "points": n_points,
        "samples": len(plain),
        "op_s_samples": plain,
        "rep_err": max(m["errors"]) if m["errors"] else None,
        "rep_err_limit": REP_ERR_LIMIT,
        "fail_ratio": len(m["failures"]) / m["attempted"],
        "failures": sorted(set(m["failures"]))[:5],
        "setup_samples_s": setup_samples,
    }
    if args.trace:
        per_layer = {key: statistics.median(op[key] for op in m["per_op"]) for key in m["per_op"][0]}
        per_layer["trace.overhead_s"] = statistics.median(m["traced"]) - statistics.median(plain)
        per_layer["quality.rep_err"] = details["rep_err"] if m["errors"] else -1.0  # no result to measure
        per_layer["quality.fail_ratio"] = details["fail_ratio"]
        layer_self = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS)
        details["traced_op_s"] = statistics.median(m["traced"])
        details["self_sum_over_traced_op_s"] = layer_self / details["traced_op_s"]
        details["missing_names"] = m["missing"]
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        m["tracer"].write(spans_file)
        details["spans_file"] = str(spans_file.relative_to(ROOT))
        metrics = {key: {"value": value, "unit": _unit(key)} for key, value in per_layer.items()}
    else:
        op_s = statistics.median(plain)
        tail_s, percentile = tail(plain)
        details["op_s_tail_percentile"] = percentile
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "points_per_s": {"value": n_points / op_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    failed = len(m["failures"])
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": m["attempted"], "failed": failed, "metrics": metrics}))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes") or key == "cli.bytes_written":
        return "B"
    if key.endswith("_ratio") or key == "core.squared_distances_per_step":
        return "ratio"
    if key == "quality.rep_err":
        return "data-units"
    return "count"


def run_all(args) -> int:
    """Every workload in a fresh process, printed as one table."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed to run (exit {proc.returncode})\n{proc.stderr.strip()}")
            ok = False
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
              f" samples={details['samples']} seed={args.seed}")
        for key, metric in result["metrics"].items():
            print(f"  {key:38s} {metric['value']:.6g} {metric['unit']}")
        print(f"  {'fail_ratio':38s} {details['fail_ratio']:.6g} ratio")
        rep = "none" if details["rep_err"] is None else f"{details['rep_err']:.6g}"
        print(f"  {'rep_err':38s} {rep} data-units (gate <= {details['rep_err_limit']:g})")
        for reason in details["failures"]:
            print(f"  failure: {reason}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them, each in its own process, when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spcm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
