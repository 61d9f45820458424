"""The workloads, each run once in a fresh child process.

A workload function receives a :class:`Context` and returns a result
dict (see :func:`child.main`).  It records when its set-up ended
(``ctx.mark_ready``), generates its inputs from ``ctx.seed`` alone, and
checks its own outputs; a failed check is appended to ``ctx.failures``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
from dataclasses import dataclass, field

from benchstats import due_times, open_loop_accounting
from tracing import Tracer, now, traced_executor


class SetupDone(Exception):
    """Raised at the end of set-up when the child only measures set-up."""


@dataclass
class Context:
    seed: int
    params: dict
    t0: float
    workdir: str
    setup_only: bool = False
    tracer: Tracer | None = None
    ready: float | None = None
    excluded_s: float = 0.0
    failures: list = field(default_factory=list)

    def mark_ready(self) -> None:
        """End of set-up: the first input is ready to submit."""
        if self.ready is None:
            self.ready = now()
        if self.setup_only:
            raise SetupDone

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext({"attrs": {}})
        return self.tracer.span(name, **attrs)

    def executor(self, inner):
        return inner if self.tracer is None else traced_executor(self.tracer, inner)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @contextlib.contextmanager
    def untraced(self):
        """Correctness checks run outside the trace."""
        tracer = self.tracer or Tracer()
        tracer.enabled = False
        try:
            yield
        finally:
            tracer.enabled = True


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _factory(name: str):
    """The reference model factory (the timed one in a traced run)."""
    from repro.core.matrix import default_model_factories

    return default_model_factories()[name]


def _generate(ctx: Context, scenario, n_epochs, batch_epochs, seed) -> list:
    """Pre-generate one telemetry stream (generator work, not timed as
    set-up)."""
    from repro.datasets import stream_scenario_telemetry

    with ctx.span("nfv.generate", epochs=n_epochs):
        return list(stream_scenario_telemetry(
            scenario, n_epochs, batch_epochs=batch_epochs, random_state=seed,
        ))


def _trace_windows(ctx: Context, engine) -> None:
    """Time each ``process_pending`` call of ``engine`` as a window span."""
    if ctx.tracer is None:
        return
    real = engine.process_pending

    def process_pending(executor=None):
        with ctx.span("stream.window"):
            return real(executor)

    engine.process_pending = process_pending


# -- serve-fleet ------------------------------------------------------------
def serve_fleet(ctx: Context) -> dict:
    from repro.core.stream import StreamingDiagnosisEngine
    from repro.serve import (
        BackpressureError,
        DiagnosisService,
        load_snapshot,
        save_snapshot,
    )
    from repro.utils.rng import spawn_seeds

    p = ctx.params
    tenants, epochs, batch = p["tenants"], p["epochs"], p["batch_epochs"]
    config = dict(p["engine"])
    factory = _factory(p["model"])
    names = [f"tenant-{i:03d}" for i in range(tenants)]
    scenarios = p["scenarios"]

    # the generator: every tenant's telemetry, before timing starts
    start = now()
    seeds = spawn_seeds(ctx.seed, tenants)
    streams = {} if ctx.setup_only else {
        name: _generate(ctx, scenarios[i % len(scenarios)], epochs, batch, seeds[i])
        for i, name in enumerate(names)
    }
    ctx.excluded_s = now() - start

    service = DiagnosisService(
        factory, random_state=ctx.seed, backend="serial",
        max_pending_epochs=p["max_pending_epochs"], **config,
    )
    sessions = [service.open_session(name) for name in names]
    executor = ctx.executor(service.executor)
    for session in sessions:
        _trace_windows(ctx, session.engine)
    ctx.check([s.seed for s in sessions] == seeds, "tenant seeds differ")
    ctx.mark_ready()

    rejected = 0
    windows = 0

    def step(session, batch_):
        nonlocal rejected, windows
        try:
            with ctx.span("serve.submit"):
                session.submit(batch_)
        except BackpressureError:
            rejected += 1
            return
        with ctx.span("serve.drain"):
            windows += len(session.drain(executor))

    # 1. open loop: batch k is due at start + k * interval, whatever
    # the service is doing
    paced_batches = p["paced_epochs"] // batch
    schedule = [
        (sessions[i], streams[names[i]][b])
        for b in range(paced_batches) for i in range(tenants)
    ]
    interval = batch / p["paced_epochs_per_s"]
    starts, ends = [], []
    idle = 0.0
    paced_start = now()
    dues = due_times(paced_start, len(schedule), interval)
    for due, (session, batch_) in zip(dues, schedule):
        wait = due - now()
        if wait > 0:
            idle += wait
            _wait_until(due)
        starts.append(now())
        step(session, batch_)
        ends.append(now())
    latencies, lags = open_loop_accounting(dues, starts, ends)
    paced_s = now() - paced_start

    # 2. restart: snapshot -> save -> load -> restore
    path = os.path.join(ctx.workdir, "service.snapshot")
    restart_start = now()
    with ctx.span("serve.snapshot"):
        snap = service.snapshot()
    with ctx.span("serve.save"):
        save_snapshot(snap, path)
    with ctx.span("serve.load"):
        loaded = load_snapshot(path)
    with ctx.span("serve.restore"):
        restored = DiagnosisService.restore(loaded, model_factory=factory,
                                            backend="serial")
    restart_s = now() - restart_start
    snapshot_bytes = os.path.getsize(path)
    os.remove(path)
    service.close()

    # 3. closed loop: the rest of the telemetry, as fast as it drains
    sessions = [restored.session(name) for name in names]
    executor = ctx.executor(restored.executor)
    for session in sessions:
        _trace_windows(ctx, session.engine)
    drain_start = now()
    for b in range(paced_batches, epochs // batch):
        for session in sessions:
            step(session, streams[session.name][b])
    for session in sessions:
        with ctx.span("serve.drain"):
            windows += len(session.flush(executor))
    drain_s = now() - drain_start
    tables = {name: restored.report(name).format_table(timing=False)
              for name in names}
    wall = now()
    quarantined = len(restored.health_report().quarantined)
    refits = sum(w.refit for s in sessions for w in s.windows)
    restored.close()

    expected = tenants * math.ceil(epochs / config["window_epochs"])
    ctx.check(windows == expected, f"{windows} windows, expected {expected}")
    ctx.check(rejected == 0, f"{rejected} backpressure rejections")
    ctx.check(quarantined == 0, f"{quarantined} quarantined sessions")
    with ctx.untraced():
        k = p["sampled_tenants"]
        for i in list(range(0, tenants, max(1, tenants // k)))[:k]:
            name = names[i]
            lone = StreamingDiagnosisEngine(factory, random_state=seeds[i], **config)
            table = lone.run(streams[name]).format_table(timing=False)
            ctx.check(table == tables[name],
                      f"{name} differs from a lone uninterrupted engine")
    return {
        "wall_end": wall,
        "idle_s": idle,
        "latencies_ms": [x * 1e3 for x in latencies],
        "lags_ms": [x * 1e3 for x in lags],
        "attempted": tenants * (epochs // batch),
        "failed": rejected + quarantined + max(0, expected - windows),
        "digest": digest("".join(f"{n}\n{t}\n" for n, t in tables.items())),
        "extra": {
            "paced_s": paced_s,
            "restart_s": restart_s,
            "drain_epochs_per_s": tenants * (epochs - p["paced_epochs"]) / drain_s,
            "snapshot_bytes": snapshot_bytes,
            "windows": windows,
            "refits": refits,
            "rejected": rejected,
            "quarantined": quarantined,
        },
    }


def _wait_until(deadline: float) -> None:
    # spin rather than sleep: waking from a sleep adds a variable delay
    # (about a third of a cheap window's latency on a 2-vCPU VM) that
    # would be charged to the service
    while now() < deadline:
        pass


# -- stream-forest ----------------------------------------------------------
def stream_forest(ctx: Context) -> dict:
    from repro.core.executor import SerialExecutor
    from repro.core.stream import StreamingDiagnosisEngine

    p = ctx.params
    config = dict(p["engine"])
    start = now()
    batches = [] if ctx.setup_only else _generate(
        ctx, p["scenario"], p["epochs"], config["window_epochs"], ctx.seed
    )
    ctx.excluded_s = now() - start

    engine = StreamingDiagnosisEngine(
        _factory(p["model"]), random_state=ctx.seed, backend="serial",
        **config,
    )
    _trace_windows(ctx, engine)
    executor = ctx.executor(SerialExecutor())
    ctx.mark_ready()

    stamps = [now()]
    report = engine.run(batches, executor=executor,
                        progress=lambda _line: stamps.append(now()))
    end = now()
    latencies = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    rows = sum(w.n_explained for w in report.windows)

    cap = config["explain_per_window"]
    expected = math.ceil(p["epochs"] / config["window_epochs"])
    n = len(report.windows)
    ctx.check(n == expected, f"{n} windows, expected {expected}")
    over = [w.index for w in report.windows if w.n_explained > cap]
    ctx.check(not over, f"windows {over} explain more than {cap} rows")
    return {
        "wall_end": end,
        "idle_s": 0.0,
        "latencies_ms": latencies,
        "attempted": expected,
        "failed": len(over) + max(0, expected - n),
        "digest": digest(report.format_table(timing=False)),
        "extra": {
            "attributed_rows": rows,
            "attributed_rows_per_s": rows / (end - stamps[0]),
            "windows": n,
            "refits": report.n_refits,
        },
    }


# -- scenario-matrix / scenario-search: the CLI, cold ----------------------
def _cli(ctx: Context, argv: list, capture_module, capture_name) -> tuple:
    """Run ``repro.cli.main(argv)`` with the workload's entry point
    wrapped to capture its result; returns ``(exit code, result)``."""
    import repro.cli

    captured = []
    real = getattr(capture_module, capture_name)

    def entry(*args, **kwargs):
        ctx.mark_ready()
        result = real(*args, **kwargs)
        captured.append(result)
        return result

    setattr(capture_module, capture_name, entry)
    out_path = os.path.join(ctx.workdir, "stdout.txt")
    with open(out_path, "w") as out, contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    return code, (captured[0] if captured else None)


def _cell_checks(ctx: Context, cells) -> int:
    bad = [
        f"{c.scenario}/{c.model}/{c.explainer}" for c in cells
        if not all(math.isfinite(v) for v in
                   (c.deletion_auc, c.insertion_auc, c.random_deletion_auc))
    ]
    ctx.check(not bad, f"cells with non-finite AUCs: {bad}")
    return len(bad)


def scenario_matrix(ctx: Context) -> dict:
    import repro.core.matrix as matrix

    code, report = _cli(
        ctx, ["scenarios", "run", "--seed", str(ctx.seed)],
        matrix, "run_scenario_matrix",
    )
    end = now()
    ctx.check(code == 0, f"exit code {code}")
    cells = report.cells if report is not None else []
    ctx.check(len(cells) == ctx.params["cells"],
              f"{len(cells)} cells, expected {ctx.params['cells']}")
    bad = _cell_checks(ctx, cells)
    return {
        "wall_end": end,
        "idle_s": 0.0,
        "latencies_ms": [c.explain_seconds * 1e3 for c in cells],
        "attempted": ctx.params["cells"],
        "failed": bad + max(0, ctx.params["cells"] - len(cells)),
        "digest": digest(report.format_table(timing=False) if report else ""),
        "extra": {"cells": len(cells)},
    }


def _capture_sweeps(search) -> list:
    """Collect every matrix report the search evaluates."""
    sweeps = []
    real_matrix = search.run_scenario_matrix

    def run_matrix(*args, **kwargs):
        report = real_matrix(*args, **kwargs)
        sweeps.append(report)
        return report

    search.run_scenario_matrix = run_matrix
    return sweeps


def _search_result(ctx: Context, result, sweeps, store, end) -> dict:
    """Checks shared by the search workloads, and their result dict."""
    from repro.nfv.grammar import load_generated

    cells = [c for report in sweeps for c in report.cells]
    bad = _cell_checks(ctx, cells)
    # one diagnosis: a candidate explained by every explainer of the sweep
    # (cells of one explainer alone are a much cheaper population)
    per_candidate: dict = {}
    for i, report in enumerate(sweeps):
        for c in report.cells:
            key = (i, c.scenario, c.model)
            per_candidate[key] = per_candidate.get(key, 0.0) + c.explain_seconds
    winners = result.winners if result is not None else []
    # whether a seed finds a winner is the search's answer, not a check;
    # a winner must beat every catalog baseline and be in the store
    weak = [c.name for c in winners if not c.score > result.baseline_worst]
    ctx.check(not weak, f"winners not worse than every baseline: {weak}")
    stored = sorted(load_generated(store)) if os.path.exists(store) else []
    ctx.check(stored == sorted(c.name for c in winners),
              f"store holds {stored}, winners are {[c.name for c in winners]}")
    candidates = result.candidates if result is not None else []
    unscored = [
        c.name for c in candidates
        if not c.status.startswith("rejected")
        and (c.score is None or not math.isfinite(c.score))
    ]
    ctx.check(not unscored, f"candidates without a score: {unscored}")
    return {
        "wall_end": end,
        "idle_s": 0.0,
        "latencies_ms": [t * 1e3 for t in per_candidate.values()],
        "attempted": max(1, len(candidates)),
        "failed": len(unscored) + len(weak) + bad + (result is None),
        "digest": digest(result.format_trace() if result else ""),
        "extra": {
            "candidates": len(candidates),
            "winners": len(winners),
            "cells": len(cells),
        },
    }


def _fresh_store(ctx: Context) -> str:
    store = os.path.join(ctx.workdir, "generated.json")
    if os.path.exists(store):
        os.remove(store)
    return store


def scenario_search(ctx: Context) -> dict:
    import repro.core.search as search

    sweeps = _capture_sweeps(search)
    store = _fresh_store(ctx)
    argv = ["scenarios", "search", "--seed", str(ctx.seed), "--store", store,
            *ctx.params["args"]]
    code, result = _cli(ctx, argv, search, "search_scenarios")
    end = now()
    ctx.check(code == 0, f"exit code {code}")
    return _search_result(ctx, result, sweeps, store, end)


def search_boosted(ctx: Context) -> dict:
    import repro.core.search as search
    from repro.nfv.grammar import save_generated

    p = ctx.params
    sweeps = _capture_sweeps(search)
    store = _fresh_store(ctx)
    base = _factory(p["model"])
    models = {p["model"]: functools.partial(
        base.func, *base.args, **{**base.keywords, **p["model_params"]}
    )}
    ctx.mark_ready()
    result = search.search_scenarios(
        seed=ctx.seed, models=models, backend="serial", **p["search"],
    )
    if result.winners:
        save_generated(result.winner_recipes(), store)
    return _search_result(ctx, result, sweeps, store, now())


WORKLOADS = {
    "serve-fleet": serve_fleet,
    "stream-forest": stream_forest,
    "scenario-matrix": scenario_matrix,
    "scenario-search": scenario_search,
    "search-boosted": search_boosted,
}


def cache_stats() -> dict:
    from repro.core.cache import get_cache

    return get_cache().stats()
