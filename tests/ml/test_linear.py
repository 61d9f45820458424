"""Tests for repro.ml.linear."""

from functools import partial

import numpy as np
import pytest

from repro.core.stream import StreamingDiagnosisEngine
from repro.datasets import stream_scenario_telemetry
from repro.ml import (
    ConvergenceError,
    LinearRegression,
    LogisticRegression,
    RidgeRegression,
)
from repro.ml import linear
from repro.ml.linear import solve_weighted_ridge
from repro.utils.rng import check_random_state
from repro.utils.validation import NotFittedError


class TestLinearRegression:
    def test_recovers_coefficients(self, rng):
        X = rng.normal(size=(200, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w + 3.0
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.coef_, w, atol=1e-8)
        assert model.intercept_ == pytest.approx(3.0, abs=1e-8)

    def test_no_intercept(self, rng):
        X = rng.normal(size=(100, 2))
        y = X @ np.array([1.0, 2.0])
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        np.testing.assert_allclose(model.coef_, [1.0, 2.0], atol=1e-8)

    def test_score_perfect(self, rng):
        X = rng.normal(size=(50, 2))
        y = X @ np.array([1.0, -1.0]) + 0.5
        assert LinearRegression().fit(X, y).score(X, y) == pytest.approx(1.0)

    def test_unfitted_predict(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict([[1.0]])


class TestRidgeRegression:
    def test_shrinks_towards_zero(self, rng):
        X = rng.normal(size=(100, 3))
        y = X @ np.array([5.0, -5.0, 2.0]) + rng.normal(0, 0.1, 100)
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=100.0).fit(X, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(ols.coef_)

    def test_alpha_zero_matches_ols(self, rng):
        X = rng.normal(size=(80, 3))
        y = X @ np.array([1.0, 2.0, -1.0]) + 1.0
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=0.0).fit(X, y)
        np.testing.assert_allclose(ridge.coef_, ols.coef_, atol=1e-8)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            RidgeRegression(alpha=-1.0)

    def test_sample_weight_focuses_fit(self, rng):
        # two clusters with different slopes; weighting one cluster
        # should recover that cluster's slope
        X = np.vstack([np.linspace(0, 1, 50), np.linspace(0, 1, 50)]).reshape(
            100, 1
        )
        y = np.concatenate([2 * X[:50, 0], 10 * X[50:, 0]])
        w = np.concatenate([np.ones(50), np.zeros(50)])
        model = RidgeRegression(alpha=1e-9).fit(X, y, sample_weight=w)
        assert model.coef_[0] == pytest.approx(2.0, abs=1e-6)


class TestSolveWeightedRidge:
    def test_matches_closed_form_ols(self, rng):
        X = rng.normal(size=(60, 2))
        y = X @ np.array([3.0, -1.0]) + 2.0
        coef, intercept = solve_weighted_ridge(X, y)
        np.testing.assert_allclose(coef, [3.0, -1.0], atol=1e-8)
        assert intercept == pytest.approx(2.0, abs=1e-8)

    def test_intercept_not_regularized(self, rng):
        X = rng.normal(size=(100, 1))
        y = np.full(100, 42.0)
        coef, intercept = solve_weighted_ridge(X, y, alpha=1e6)
        assert abs(coef[0]) < 1e-3
        assert intercept == pytest.approx(42.0, abs=0.1)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_weighted_ridge(
                np.ones((2, 1)), np.ones(2), np.array([1.0, -1.0])
            )

    def test_singular_design_does_not_crash(self):
        # duplicated column -> singular gram matrix; lstsq must handle it
        X = np.ones((10, 2))
        y = np.arange(10.0)
        coef, intercept = solve_weighted_ridge(X, y)
        assert np.all(np.isfinite(coef))


class TestLogisticRegression:
    def test_separable_data_high_accuracy(self, rng):
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = LogisticRegression(max_iter=300).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_predict_proba_rows_sum_to_one(self, rng):
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)

    def test_multiclass(self, rng):
        X = rng.normal(size=(400, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5])  # 3 classes
        model = LogisticRegression(max_iter=400).fit(X, y)
        assert len(model.classes_) == 3
        assert model.score(X, y) > 0.8
        assert model.predict_proba(X).shape == (400, 3)

    def test_string_labels(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.where(X[:, 0] > 0, "violate", "ok")
        model = LogisticRegression().fit(X, y)
        assert set(model.predict(X)) <= {"violate", "ok"}

    def test_regularization_shrinks(self, rng):
        X = rng.normal(size=(150, 2))
        y = (X[:, 0] > 0).astype(int)
        weak = LogisticRegression(c=100.0, max_iter=500).fit(X, y)
        strong = LogisticRegression(c=0.01, max_iter=500).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            LogisticRegression().fit(np.ones((5, 1)), np.zeros(5))

    def test_bad_c_rejected(self):
        with pytest.raises(ValueError, match="c must be positive"):
            LogisticRegression(c=0.0)


# ----------------------------------------------------------------------
# Newton solver against a reference gradient-descent loop


def _objective(X, Y, W, b, c):
    """Mean softmax cross-entropy + 0.5 * lam * ||W||^2, lam = 1/(c n)."""
    n = len(X)
    Z = X @ W + b
    zmax = Z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(Z - zmax).sum(axis=1)) + zmax[:, 0]
    return np.mean(lse - np.sum(Y * Z, axis=1)) + 0.5 / (c * n) * np.sum(W * W)


def _gradient(X, Y, W, b, c, fit_intercept):
    n = len(X)
    Z = X @ W + b
    P = np.exp(Z - Z.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    grad_W = X.T @ (P - Y) / n + W / (c * n)
    grad_b = (P - Y).mean(axis=0) if fit_intercept else np.zeros_like(b)
    return grad_W, grad_b


def _reference_gd(X, Y, c, fit_intercept, n_steps=20_000):
    """Full-batch gradient descent with the fixed step 1/L.

    ``L`` bounds the Hessian: the softmax cross-entropy curvature is at
    most ``0.5 * ||[X, 1]||_2^2 / n`` plus the penalty.
    """
    n, d = X.shape
    Xd = np.hstack([X, np.ones((n, 1))]) if fit_intercept else X
    lipschitz = 0.5 * np.linalg.norm(Xd, 2) ** 2 / n + 1.0 / (c * n)
    W = np.zeros((d, Y.shape[1]))
    b = np.zeros(Y.shape[1])
    for _ in range(n_steps):
        grad_W, grad_b = _gradient(X, Y, W, b, c, fit_intercept)
        W -= grad_W / lipschitz
        b -= grad_b / lipschitz
    return W, b


def _problem(n_classes, seed=0):
    """Standardised, noisy (non-separable) labels, so the optimum is finite."""
    rng = check_random_state(seed)
    X = rng.normal(size=(120, 3))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    z = X @ np.array([1.5, -1.0, 0.5]) + rng.normal(scale=1.0, size=120)
    y = np.digitize(z, [-0.6, 0.6]) if n_classes == 3 else (z > 0).astype(int)
    Y = np.eye(n_classes)[y]
    return X, y, Y


SOLVER_CASES = [
    (k, fit_intercept, c)
    for k in (2, 3)
    for fit_intercept in (True, False)
    for c in (0.01, 1.0, 100.0)
]


class TestNewtonSolver:
    @pytest.mark.parametrize("n_classes,fit_intercept,c", SOLVER_CASES)
    def test_converged_and_matches_reference(self, n_classes, fit_intercept, c):
        X, y, Y = _problem(n_classes)
        model = LogisticRegression(c=c, fit_intercept=fit_intercept).fit(X, y)
        W, b = model.coef_, model.intercept_

        grad_W, grad_b = _gradient(X, Y, W, b, c, fit_intercept)
        grad_norm = np.sqrt(np.sum(grad_W**2) + np.sum(grad_b**2))
        assert grad_norm < model.tol
        assert model.grad_norm_ < model.tol
        assert abs(b.sum()) <= 1e-10

        W_ref, b_ref = _reference_gd(X, Y, c, fit_intercept)
        # stopping at ||grad|| < tol leaves up to ||grad||^2 / (2 mu) of
        # the optimum unclaimed (mu: least Hessian eigenvalue), below 1e-10
        # here; 20,000 GD steps get closer than that
        assert _objective(X, Y, W, b, c) <= _objective(X, Y, W_ref, b_ref, c) + 1e-10
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=1e-4)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_fit_does_not_depend_on_budget(self, n_classes):
        X, y, _ = _problem(n_classes)
        a = LogisticRegression(max_iter=50).fit(X, y)
        b = LogisticRegression(max_iter=100).fit(X, y)
        assert a.coef_.tobytes() == b.coef_.tobytes()
        assert a.intercept_.tobytes() == b.intercept_.tobytes()
        assert a.n_iter_ == b.n_iter_ < 50

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_budget_exhausted_raises(self, n_classes):
        X, y, _ = _problem(n_classes)
        with pytest.raises(ConvergenceError, match="1 Newton steps") as info:
            LogisticRegression(max_iter=1).fit(X, y)
        assert isinstance(info.value, ValueError)
        assert info.value.n_iter == 1
        assert info.value.grad_norm >= 1e-6

    def test_failed_line_search_raises(self, monkeypatch):
        # an ascent direction can never satisfy Armijo: the fit must
        # fail closed instead of returning the starting point
        X, y, _ = _problem(2)
        newton = linear._newton_direction
        monkeypatch.setattr(
            linear, "_newton_direction", lambda *args: -newton(*args)
        )
        with pytest.raises(ConvergenceError, match="line search"):
            LogisticRegression().fit(X, y)

    def test_stream_refits_converge_within_30_steps(self):
        """E17-shaped refit windows: 16-epoch windows, refit every 2.

        The history holds 12-48 rows of 31 raw features, some columns
        near-constant.  A 30-step budget raises ConvergenceError on any
        refit needing more, and the report bytes must match the default
        budget's: the explained model does not depend on ``max_iter``.
        """
        config = dict(
            window_epochs=16, refit_every=2, explain_per_window=2,
            explainer_kwargs={"n_samples": 32}, random_state=3,
        )

        def run(model_factory):
            stream = stream_scenario_telemetry(
                "fault-storm", 192, batch_epochs=16, random_state=3
            )
            engine = StreamingDiagnosisEngine(model_factory, **config)
            return engine.run(stream)

        capped = run(partial(LogisticRegression, max_iter=30))
        assert sum(w.refit for w in capped.windows) >= 5
        default = run(LogisticRegression)
        assert capped.format_table(timing=False) == default.format_table(
            timing=False
        )
