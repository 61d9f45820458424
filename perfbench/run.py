"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each repetition of the workload is a
fresh interpreter (``perfbench/child.py``) on the serial backend with one
BLAS thread.  ``--trace 0`` repeats the workload while ``--seconds``
allows, adds set-up-only starts until there are enough set-up samples,
and reports the end-to-end metrics as medians.  ``--trace 1`` runs the
workload once untraced and once traced and reports the per-layer
metrics; the spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails and 2 when the checkout cannot run at all.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from benchstats import median, tail_percentile
from tracing import import_metrics, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up samples per untraced run (repetitions plus set-up-only starts).
SETUP_SAMPLES = 3
#: Hard limit on one run, well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "diagnosis_latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Units of the end-to-end figures each workload prints beside the gated
#: ones (see :func:`workload_extras`).
EXTRA_UNITS = {
    "diagnosis_latency_p95_ms": "ms", "latency_samples": "count",
    "drain_epochs_per_s": "1/s", "restart_s": "s",
    "generator_lag_p95_ms": "ms", "attributed_rows_per_s": "1/s",
    "error_ratio": "ratio", "repetitions": "count",
}

PER_LAYER = {
    "import.total_s": "s", "import.scipy_s": "s", "import.networkx_s": "s",
    "nfv.generate_s": "s", "nfv.epochs": "count",
    "grammar.accept_s": "s", "grammar.accept_calls": "count",
    "grammar.rejected": "count",
    "ml.fit_s": "s", "ml.fit_calls": "count", "ml.predict_s": "s",
    "ml.predict_calls": "count", "ml.predict_rows": "count",
    "explain.self_s": "s", "explain.rows": "count",
    "cache.hits": "count", "cache.misses": "count", "cache.hit_ratio": "ratio",
    "stream.windows": "count", "stream.refits": "count",
    "stream.window_s": "s", "stream.window_self_s": "s",
    "serve.submit_s": "s", "serve.submits": "count", "serve.rejected": "count",
    "serve.quarantined": "count", "serve.drain_s": "s",
    "serve.snapshot_s": "s", "serve.save_s": "s", "serve.load_s": "s",
    "serve.restore_s": "s", "serve.snapshot_bytes": "bytes",
    "executor.map_calls": "count", "executor.tasks": "count",
    "executor.dispatch_s": "s",
    "matrix.cells": "count", "matrix.explain_s": "s",
    "matrix.eval_self_s": "s",
    "search.candidates": "count", "search.winners": "count",
    "bench.generator_lag_p95_ms": "ms", "bench.trace_overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The run cannot go on (a child crashed or overran)."""


def workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, workdir: Path, deadline: float, *,
              setup_only=False, trace=False) -> dict:
    """One fresh-interpreter repetition; returns its result dict."""
    out = workdir / "result.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    t0 = now()
    cmd += [str(HERE / "child.py"), workload, str(seed), repr(t0),
            str(workdir), str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(
        cmd, cwd=str(ROOT), env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} repetition overran the run limit")
    if proc.returncode != 0 or not out.exists():
        tail = "\n".join(stderr.splitlines()[-15:])
        raise BenchError(
            f"{workload} child exited with {proc.returncode}:\n{tail}"
        )
    result = json.loads(out.read_text())
    if trace:
        result["imports"] = import_metrics(stderr)
    result["elapsed_s"] = now() - t0
    return result


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced repetitions within ``seconds``, then set-up-only starts
    until there are :data:`SETUP_SAMPLES` set-up samples."""
    start = now()
    hard = start + RUN_LIMIT_S
    reps = [run_child(workload, seed, workdir, hard)]
    setups = [reps[0]["setup_s"]]
    while True:
        longest = max(r["elapsed_s"] for r in reps)
        probes = max(0, SETUP_SAMPLES - len(setups) - 1) * max(setups)
        if now() - start + longest + probes > seconds:
            break
        reps.append(run_child(workload, seed, workdir, hard))
        setups.append(reps[-1]["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(
            run_child(workload, seed, workdir, hard, setup_only=True)["setup_s"]
        )
    return {"reps": reps, "setups": setups}


def end_to_end(measured: dict) -> dict:
    reps = measured["reps"]
    latencies = [x for r in reps for x in r["latencies_ms"]]
    return {
        "setup_s": median(measured["setups"]),
        "wall_s": median(r["wall_s"] for r in reps),
        "diagnosis_latency_p50_ms": median(latencies),
        "peak_rss_mb": median(r["rss_mb"] for r in reps),
    }


def workload_extras(workload: str, reps: list) -> dict:
    """The workload's own end-to-end figures, printed beside the gated ones."""
    extras: dict = {}
    latencies = [x for r in reps for x in r["latencies_ms"]]
    if workload == "serve-fleet":
        extras["diagnosis_latency_p95_ms"] = tail_percentile(latencies, 95)
        extras["latency_samples"] = len(latencies)
        extras["drain_epochs_per_s"] = median(r["extra"]["drain_epochs_per_s"] for r in reps)
        extras["restart_s"] = median(r["extra"]["restart_s"] for r in reps)
        extras["generator_lag_p95_ms"] = tail_percentile(
            [x for r in reps for x in r["lags_ms"]], 95
        )
    if workload == "stream-forest":
        extras["attributed_rows_per_s"] = median(
            r["extra"]["attributed_rows_per_s"] for r in reps
        )
    attempted = sum(r["attempted"] for r in reps)
    extras["error_ratio"] = sum(r["failed"] for r in reps) / attempted
    extras["repetitions"] = len(reps)
    return extras


def per_layer(plain: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers.update(traced["imports"])
    cache = traced["cache"]
    lookups = cache["hits"] + cache["misses"]
    extra = traced["extra"]
    layers.update({
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "stream.windows": extra.get("windows", 0),
        "stream.refits": extra.get("refits", 0),
        "serve.rejected": extra.get("rejected", 0),
        "serve.quarantined": extra.get("quarantined", 0),
        "serve.snapshot_bytes": extra.get("snapshot_bytes", 0),
        "search.candidates": extra.get("candidates", 0),
        "search.winners": extra.get("winners", 0),
        "bench.generator_lag_p95_ms": (
            tail_percentile(plain["lags_ms"], 95) if plain.get("lags_ms") else 0.0
        ),
        "bench.trace_overhead_ratio": traced["wall_s"] / plain["wall_s"],
    })
    return {name: layers[name] for name in PER_LAYER}


def environment() -> dict:
    """Recorded, never gated: interpreter, libraries, CPUs, code size."""
    import importlib.util

    import numpy

    lines = 0
    third_party = set()
    stdlib = set(sys.stdlib_module_names)
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            for name in names:
                top = name.split(".")[0]
                if top not in stdlib and top != "repro":
                    third_party.add(top)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "scipy": importlib.util.find_spec("scipy") is not None,
        "networkx": importlib.util.find_spec("networkx") is not None,
        "src_lines": lines,
        "runtime_dependencies": sorted(third_party),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    specs = workloads()
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(specs)}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            deadline = now() + RUN_LIMIT_S
            plain = run_child(args.workload, args.seed, workdir, deadline)
            traced = run_child(args.workload, args.seed, workdir, deadline,
                               trace=True)
            reps = [plain, traced]
            (OUT / f"spans-{tag}.json").write_text(
                json.dumps(traced.pop("spans"))
            )
            metrics = per_layer(plain, traced)
            units = PER_LAYER
        else:
            measured = measure(args.workload, args.seed, args.seconds, workdir)
            reps = measured["reps"]
            metrics = end_to_end(measured)
            units = END_TO_END
            extras = workload_extras(args.workload, reps)
            for name, value in extras.items():
                print(f"{args.workload}  {name} = {value:.6g} {EXTRA_UNITS[name]}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in reps for f in r["failures"]]
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        failures.append(f"report_sha256 differs between repetitions: {digests}")
    correct = not failures
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}  report_sha256 = {digests[0]}")
    for failure in failures:
        print(f"{args.workload}  FAILED: {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "report_sha256": digests,
        "metrics": metrics, "failures": failures,
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("latencies_ms", "lags_ms")}
            | {"latency_p50_ms": median(r["latencies_ms"])}
            for r in reps
        ],
    }
    if not args.trace:
        record["extras"] = extras
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"{args.workload}  environment = {json.dumps(record['environment'])}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
