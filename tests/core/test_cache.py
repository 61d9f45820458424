"""Tests for repro.core.cache — memoized coalition designs, and fresh
expected values for explainers built over a model refit in place."""

import numpy as np
import pytest

from repro.core.cache import (
    MAX_DESIGNS,
    ExplainerCache,
    clear_cache,
    get_cache,
)
from repro.core.explainers import KernelShapExplainer, model_output_fn


class RowSumModel:
    """A predict function: the row sums of ``X``."""

    def __call__(self, X):
        return np.atleast_2d(X).sum(axis=1)


KEY = ("kernel_shap", 4, 16, True, 0)


def _build_design():
    return np.ones((3, 4), dtype=bool), np.arange(3.0)


class LinearModel:
    """Least-squares regressor that can be refit in place."""

    def fit(self, X, y):
        self.coef_ = np.linalg.lstsq(X, y, rcond=None)[0]
        return self

    def predict(self, X):
        return np.atleast_2d(X) @ self.coef_


class TestCoalitionDesignCache:
    def test_build_called_once_per_key(self):
        cache = ExplainerCache()
        calls = []

        def build():
            calls.append(1)
            return np.ones((3, 4), dtype=bool), np.ones(3)

        key = ("kernel_shap", 4, 64, True, 0)
        m1, w1 = cache.coalition_design(key, build)
        m2, w2 = cache.coalition_design(key, build)
        assert len(calls) == 1
        assert m1 is m2 and w1 is w2
        assert not m1.flags.writeable

    def test_kernel_explainer_shares_design_across_instances(self):
        clear_cache()
        fn = RowSumModel()
        bg = np.linspace(0.0, 1.0, 24).reshape(6, 4)
        first = KernelShapExplainer(fn, bg, n_samples=32, random_state=0)
        first.explain(bg[0])
        designs_after_first = get_cache().stats()["design_entries"]
        second = KernelShapExplainer(fn, bg, n_samples=32, random_state=0)
        second.explain(bg[1])
        assert get_cache().stats()["design_entries"] == designs_after_first
        clear_cache()

    def test_generator_random_state_bypasses_cache(self):
        clear_cache()
        fn = RowSumModel()
        bg = np.linspace(0.0, 1.0, 24).reshape(6, 4)
        explainer = KernelShapExplainer(
            fn, bg, n_samples=32, random_state=np.random.default_rng(0)
        )
        explainer.explain(bg[0])
        assert get_cache().stats()["design_entries"] == 0
        clear_cache()

    def test_clear_resets_counters(self):
        cache = ExplainerCache()
        cache.coalition_design(KEY, _build_design)
        cache.coalition_design(KEY, _build_design)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "design_entries": 0}

    def test_designs_bounded_lru(self):
        cache = ExplainerCache()
        for seed in range(MAX_DESIGNS + 1):
            cache.coalition_design(("k", 4, 16, True, seed), _build_design)
        assert cache.stats()["design_entries"] == MAX_DESIGNS
        # the oldest design (seed 0) was evicted and is rebuilt on request
        cache.coalition_design(("k", 4, 16, True, 0), _build_design)
        assert cache.stats()["hits"] == 0

    def test_thread_safety_under_concurrent_requests(self):
        from concurrent.futures import ThreadPoolExecutor

        cache = ExplainerCache()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                cache.coalition_design, [KEY] * 32, [_build_design] * 32
            ))
        masks, weights = _build_design()
        for m, w in results:
            np.testing.assert_array_equal(m, masks)
            np.testing.assert_array_equal(w, weights)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 32
        assert stats["design_entries"] == 1


class TestCachedExplainerCorrectness:
    def test_expected_value_matches_uncached(self):
        clear_cache()
        fn = RowSumModel()
        bg = np.linspace(-1.0, 1.0, 40).reshape(10, 4)
        a = KernelShapExplainer(fn, bg, n_samples=16, random_state=0)
        b = KernelShapExplainer(fn, bg, n_samples=16, random_state=0)
        assert a.expected_value_ == b.expected_value_
        assert a.expected_value_ == pytest.approx(float(fn(bg).mean()))
        clear_cache()

    def test_in_place_refit_gets_fresh_expected_value(self):
        """A refit that agrees with the old fit on background rows 0,
        mid and last but differs elsewhere must still move the expected
        value of a new explainer over the same predict function."""
        bg = np.column_stack([np.arange(10.0), np.ones(10)])
        bg[[0, 5, 9], 1] = 0.0  # the refit only changes the x1 weight
        model = LinearModel().fit(bg, bg @ [1.0, 1.0])
        fn = model_output_fn(model)
        before = KernelShapExplainer(fn, bg, n_samples=16, random_state=0)
        model.fit(bg, bg @ [1.0, 3.0])
        after = KernelShapExplainer(fn, bg, n_samples=16, random_state=0)
        fresh = float(np.mean(fn(bg)))
        assert fresh != pytest.approx(before.expected_value_)
        assert after.expected_value_ == fresh
