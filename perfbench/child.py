"""One workload run in a fresh interpreter; started by ``run.py``.

    python3 perfbench/child.py WORKLOAD SEED T0 WORKDIR OUT [--setup-only] [--trace]

``T0`` is the parent's monotonic clock just before it started this
process, so set-up time includes interpreter start.  The result is
written as JSON to ``OUT``; with ``--trace`` it carries the spans and
per-layer counts.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from tracing import Tracer, install, layer_metrics
from workloads import WORKLOADS, Context, SetupDone, cache_stats


def main(argv) -> int:
    workload, seed, t0, workdir, out = argv[:5]
    flags = set(argv[5:])
    params = json.loads(
        (Path(__file__).parent / "workloads.json").read_text()
    )[workload]["params"]
    tracer = Tracer() if "--trace" in flags else None
    if tracer is not None:
        install(tracer)
    ctx = Context(
        seed=int(seed), params=params, t0=float(t0), workdir=workdir,
        setup_only="--setup-only" in flags, tracer=tracer,
    )
    result: dict = {}
    try:
        result = WORKLOADS[workload](ctx)
    except SetupDone:
        pass
    result["setup_s"] = ctx.ready - ctx.t0 - ctx.excluded_s
    if not ctx.setup_only:
        # time the open-loop generator spent waiting for due times is not
        # the program's, so it is left out like input generation
        result["wall_s"] = (result.pop("wall_end") - ctx.t0 - ctx.excluded_s
                            - result["idle_s"])
        result["failures"] = ctx.failures
        result["cache"] = cache_stats()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and not ctx.setup_only:
        result["spans"] = tracer.to_json()
        result["layers"] = layer_metrics(result["spans"])
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
