"""Spans recorded around calls into the program's public API.

Nothing here reaches inside ``repro``: model factories are handed timing
subclasses, executors are wrapped, and exported functions are replaced
by timing wrappers in the benchmark's own child process.  Spans are kept
in memory and written out as JSON when the run ends.

Every workload runs single-threaded on the serial backend, so one stack
gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import re
import time

from benchstats import self_time, union_length


def now() -> float:
    """The benchmark's one clock, comparable across processes on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans: ``(id, parent, name, start, end, attrs)``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = True
        self._stack: list[dict] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext({"attrs": {}})
        return _Span(self, name, attrs)

    def to_json(self) -> list[dict]:
        return [dict(s) for s in self.spans]


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "attrs": attrs}
        tracer.spans.append(self.record)

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1]["id"] if stack else None
        stack.append(self.record)
        self.record["start"] = now()
        return self.record

    def __exit__(self, *exc_info):
        self.record["end"] = now()
        stack = self.tracer._stack
        # pop by identity: an abandoned generator span may close late
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self.record:
                del stack[i]
                break


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


# -- model factories --------------------------------------------------------
#: The tracer timing subclasses report to; set by :func:`install`.
ACTIVE: Tracer | None = None


def _timed_subclass(base):
    """Subclass of ``base`` whose ``fit`` / ``predict_proba`` record spans.

    It keeps the base's name, so the models' reprs (and with them the
    explainer-cache tokens) are unchanged, and it lives at module level
    here so fitted models still pickle into service snapshots.
    """

    def fit(self, X, y, *args, **kwargs):
        with ACTIVE.span("ml.fit", rows=_rows(X), model=base.__name__):
            return base.fit(self, X, y, *args, **kwargs)

    def predict_proba(self, X, *args, **kwargs):
        with ACTIVE.span("ml.predict", rows=_rows(X), model=base.__name__):
            return base.predict_proba(self, X, *args, **kwargs)

    cls = type(base.__name__, (base,), {
        "fit": fit, "predict_proba": predict_proba, "__module__": __name__,
    })
    cls.__qualname__ = base.__name__
    globals()[base.__name__] = cls
    return cls


def timed_factories(factories: dict) -> dict:
    """``default_model_factories()`` with each class swapped for its timed
    subclass (same arguments, so the same models)."""
    return {
        name: functools.partial(
            _timed_subclass(factory.func), *factory.args, **factory.keywords
        )
        for name, factory in factories.items()
    }


# -- executor ---------------------------------------------------------------
class _TracedTask:
    def __init__(self, tracer: Tracer, fn):
        self.tracer = tracer
        self.fn = fn

    def __call__(self, *args):
        with self.tracer.span("executor.task"):
            return self.fn(*args)


def traced_executor(tracer: Tracer, inner):
    """An :class:`repro.core.executor.Executor` wrapper recording one span
    per ``map`` and one per task."""
    from repro.core.executor import Executor

    class TracedExecutor(Executor):
        backend = inner.backend

        def __init__(self):
            self.workers = inner.workers

        def map(self, fn, *iterables):
            with tracer.span("executor.map"):
                return inner.map(_TracedTask(tracer, fn), *iterables)

        def imap(self, fn, *iterables):
            with tracer.span("executor.map"):
                yield from inner.imap(_TracedTask(tracer, fn), *iterables)

        def submit(self, fn, *args):
            with tracer.span("executor.map"):
                return inner.submit(_TracedTask(tracer, fn), *args)

        def close(self):
            inner.close()

    return TracedExecutor()


def wrap(tracer: Tracer, name: str, fn, *, attrs=None, on_result=None):
    """``fn`` inside a span; ``attrs(*args, **kwargs)`` adds span
    attributes and ``on_result(record, result)`` may annotate it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = attrs(*args, **kwargs) if attrs else {}
        with tracer.span(name, **extra) as record:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(record, result)
            return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layers' public entry points for a traced run.

    Covers the model factories (timing subclasses), the executors the
    matrix and search build, dataset generation, recipe acceptance, the
    matrix runner and batched diagnosis.
    """
    global ACTIVE
    ACTIVE = tracer
    import repro.core.matrix as matrix
    import repro.core.pipeline as pipeline
    import repro.core.search as search
    from repro.nfv.grammar import RecipeValidationError

    factories = timed_factories(matrix.default_model_factories())
    matrix.default_model_factories = lambda: dict(factories)
    search.default_model_factories = matrix.default_model_factories

    def traced_get_executor(real):
        def get_executor(*args, **kwargs):
            return traced_executor(tracer, real(*args, **kwargs))
        return get_executor

    for module in (matrix, search):
        module.get_executor = traced_get_executor(module.get_executor)

    matrix.make_scenario_dataset = wrap(
        tracer, "nfv.generate", matrix.make_scenario_dataset,
        attrs=lambda scenario, n_epochs, **_: {"epochs": int(n_epochs)},
    )

    real_accept = search.accept_recipe

    def accept(*args, **kwargs):
        with tracer.span("grammar.accept") as record:
            try:
                return real_accept(*args, **kwargs)
            except RecipeValidationError as exc:
                record["attrs"]["rejected"] = exc.check
                raise

    search.accept_recipe = accept

    def cells(record, report):
        record["attrs"]["cells"] = len(report.cells)
        record["attrs"]["explain_s"] = sum(c.explain_seconds for c in report.cells)

    run_matrix = wrap(tracer, "matrix.run", matrix.run_scenario_matrix,
                      on_result=cells)
    matrix.run_scenario_matrix = run_matrix
    search.run_scenario_matrix = run_matrix

    cls = pipeline.NFVExplainabilityPipeline
    cls.diagnose_batch = wrap(
        tracer, "explain.batch", cls.diagnose_batch,
        attrs=lambda self, X, **_: {"rows": _rows(X)},
    )


# -- per-layer metrics ------------------------------------------------------
def _interval(span) -> tuple[float, float]:
    return span["start"], span["end"]


def _descendants(spans, root_id, children) -> list[dict]:
    out, todo = [], list(children.get(root_id, ()))
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(children.get(span["id"], ()))
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer times and counts from one traced run's spans."""
    spans = [s for s in spans if "end" in s]
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return union_length(_interval(s) for s in named(name))

    def minus(name, exclude):
        """Time in ``name`` spans not covered by descendants matching
        ``exclude``."""
        result = 0.0
        for s in named(name):
            inner = [
                _interval(d) for d in _descendants(spans, s["id"], children)
                if exclude(d["name"])
            ]
            result += self_time(_interval(s), inner)
        return result

    def self_of(name):
        return sum(
            self_time(_interval(s), [_interval(c) for c in children.get(s["id"], ())])
            for s in named(name)
        )

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    fits, predicts = named("ml.fit"), named("ml.predict")
    accepts = named("grammar.accept")
    return {
        "nfv.generate_s": total("nfv.generate"),
        "nfv.epochs": attr_sum("nfv.generate", "epochs"),
        "grammar.accept_s": total("grammar.accept"),
        "grammar.accept_calls": len(accepts),
        "grammar.rejected": sum("rejected" in s["attrs"] for s in accepts),
        "ml.fit_s": total("ml.fit"),
        "ml.fit_calls": len(fits),
        "ml.predict_s": total("ml.predict"),
        "ml.predict_calls": len(predicts),
        "ml.predict_rows": sum(s["attrs"]["rows"] for s in predicts),
        "explain.self_s": minus(
            "explain.batch", lambda n: n.startswith("ml.")
        ),
        "explain.rows": attr_sum("explain.batch", "rows"),
        "stream.window_s": total("stream.window"),
        "stream.window_self_s": self_of("stream.window"),
        "serve.submit_s": total("serve.submit"),
        "serve.submits": len(named("serve.submit")),
        "serve.drain_s": total("serve.drain"),
        "serve.snapshot_s": total("serve.snapshot"),
        "serve.save_s": total("serve.save"),
        "serve.load_s": total("serve.load"),
        "serve.restore_s": total("serve.restore"),
        "executor.map_calls": len(named("executor.map")),
        "executor.tasks": len(named("executor.task")),
        "executor.dispatch_s": self_of("executor.map"),
        "matrix.cells": attr_sum("matrix.run", "cells"),
        "matrix.explain_s": attr_sum("matrix.run", "explain_s"),
        "matrix.eval_self_s": minus(
            "matrix.run",
            lambda n: n.startswith(("ml.", "explain.", "nfv.")),
        ),
    }


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_metrics(stderr: str) -> dict:
    """Import cost from ``python -X importtime`` output, in seconds.

    ``import.total_s`` sums every module's self time; the scipy and
    networkx figures sum the self time of their packages' modules.
    """
    total = scipy = networkx = 0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        self_us = int(match.group(1))
        top = match.group(4).split(".")[0]
        total += self_us
        if top == "scipy":
            scipy += self_us
        elif top == "networkx":
            networkx += self_us
    return {
        "import.total_s": total / 1e6,
        "import.scipy_s": scipy / 1e6,
        "import.networkx_s": networkx / 1e6,
    }
