"""The benchmark's own arithmetic: percentile rule, self time, open-loop
lateness, import-time parsing, and the metric list in BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchstats  # noqa: E402
import tracing  # noqa: E402


class TestTailPercentile:
    def test_p95_needs_ten_samples_beyond(self):
        values = list(range(1, 201))  # 200 samples: rank 190, 10 beyond
        assert benchstats.tail_percentile(values, 95) == 190
        with pytest.raises(ValueError, match="9 beyond"):
            benchstats.tail_percentile(values[:199], 95)

    def test_p99_needs_a_thousand_samples(self):
        values = list(range(1000))
        assert benchstats.tail_percentile(values, 99) == 989
        with pytest.raises(ValueError, match="at least 1000 samples"):
            benchstats.tail_percentile(values[:999], 99)

    def test_order_of_input_does_not_matter(self):
        values = list(range(300))
        shuffled = values[::7] + [v for v in values if v % 7]
        assert (benchstats.tail_percentile(shuffled, 90)
                == benchstats.tail_percentile(values, 90))

    def test_median_is_exempt(self):
        assert benchstats.median([3.0, 1.0, 2.0]) == 2.0


class TestSelfTime:
    def test_union_counts_overlap_once(self):
        assert benchstats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert benchstats.union_length([]) == 0

    def test_children_are_subtracted_and_clipped(self):
        # (1,3) and (2,4) overlap -> 3 covered; (9,12) clipped to (9,10)
        assert benchstats.self_time((0, 10), [(1, 3), (2, 4), (9, 12)]) == 6
        assert benchstats.self_time((0, 10), [(11, 12)]) == 10

    def test_layer_metrics_subtract_child_spans(self):
        def span(i, name, parent, start, end, **attrs):
            return {"id": i, "name": name, "parent": parent,
                    "start": start, "end": end, "attrs": attrs}

        spans = [
            span(0, "stream.window", None, 0.0, 10.0),
            span(1, "ml.fit", 0, 0.0, 3.0, rows=64),
            span(2, "explain.batch", 0, 4.0, 9.0, rows=2),
            span(3, "executor.map", 2, 4.5, 8.5),
            span(4, "executor.task", 3, 5.0, 8.0),
            span(5, "ml.predict", 4, 5.0, 7.0, rows=64),
        ]
        layers = tracing.layer_metrics(spans)
        assert layers["stream.window_s"] == 10.0
        assert layers["stream.window_self_s"] == 2.0  # 10 - 3 - 5
        assert layers["explain.self_s"] == 3.0  # 5 - predict 2
        assert layers["explain.rows"] == 2
        assert layers["ml.fit_s"] == 3.0 and layers["ml.fit_calls"] == 1
        assert layers["ml.predict_rows"] == 64
        assert layers["executor.dispatch_s"] == 1.0  # 4 - task 3
        assert layers["executor.tasks"] == 1

    def test_tracer_records_parents(self):
        tracer = tracing.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.enabled = False
        with tracer.span("ignored"):
            pass
        outer, inner = tracer.spans
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


class TestOpenLoop:
    def test_schedule_is_absolute(self):
        assert benchstats.due_times(10.0, 3, 0.5) == [10.0, 10.5, 11.0]

    def test_a_stall_is_charged_to_every_request_due_during_it(self):
        dues = [0.0, 1.0, 2.0]
        # the first request stalls for 1.5 s; the next two start late
        starts = [0.0, 1.5, 3.0]
        ends = [1.5, 3.0, 3.1]
        latencies, lags = benchstats.open_loop_accounting(dues, starts, ends)
        assert latencies == pytest.approx([1.5, 2.0, 1.1])
        assert lags == pytest.approx([0.0, 0.5, 1.0])

    def test_early_generator_has_no_lag(self):
        latencies, lags = benchstats.open_loop_accounting([1.0], [1.0], [1.2])
        assert lags == [0.0] and latencies == pytest.approx([0.2])

    def test_rejects_inconsistent_input(self):
        with pytest.raises(ValueError):
            benchstats.open_loop_accounting([0.0], [0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            benchstats.open_loop_accounting([0.0], [2.0], [1.0])


def test_import_metrics_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:      2000 |       2500 | scipy.stats",
        "import time:       500 |        500 |     scipy",
        "import time:       300 |        300 | networkx",
        "some unrelated line",
    ])
    metrics = tracing.import_metrics(stderr)
    assert metrics["import.total_s"] == pytest.approx(2900e-6)
    assert metrics["import.scipy_s"] == pytest.approx(2500e-6)
    assert metrics["import.networkx_s"] == pytest.approx(300e-6)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import run

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.workloads())
