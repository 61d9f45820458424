"""Linear models: OLS, ridge, and logistic regression.

These serve both as baselines in the evaluation (E1) and as the solver
inside the LIME / KernelSHAP explainers (weighted ridge regression).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.utils.validation import check_array, check_fitted, check_X_y

__all__ = [
    "LinearRegression",
    "RidgeRegression",
    "ConvergenceError",
    "LogisticRegression",
    "solve_weighted_ridge",
]

# Armijo sufficient-decrease constant and the backtracking cap of the
# Newton line search (2**-40 of a Newton step is far below round-off)
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40


def solve_weighted_ridge(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None = None,
    alpha: float = 0.0,
    fit_intercept: bool = True,
) -> tuple[np.ndarray, float]:
    """Solve ``min_w sum_i s_i (y_i - x_i.w - b)^2 + alpha ||w||^2``.

    The intercept ``b`` is never regularized.  Returns ``(coef, intercept)``.
    This is the work-horse used by LIME and KernelSHAP.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if sample_weight is None:
        sample_weight = np.ones(n)
    else:
        sample_weight = np.asarray(sample_weight, dtype=float)
        if np.any(sample_weight < 0):
            raise ValueError("sample_weight must be non-negative")
    if fit_intercept:
        Xd = np.hstack([X, np.ones((n, 1))])
    else:
        Xd = X
    sw = sample_weight[:, None]
    gram = Xd.T @ (sw * Xd)
    if alpha > 0:
        reg = np.eye(Xd.shape[1]) * alpha
        if fit_intercept:
            reg[-1, -1] = 0.0
        gram = gram + reg
    rhs = Xd.T @ (sample_weight * y)
    # lstsq handles the singular case (e.g. duplicated coalitions) gracefully
    beta, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    if fit_intercept:
        return beta[:-1], float(beta[-1])
    return beta, 0.0


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares via ``numpy.linalg.lstsq``."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = None

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y, y_numeric=True)
        self.n_features_in_ = X.shape[1]
        if self.fit_intercept:
            Xd = np.hstack([X, np.ones((len(X), 1))])
        else:
            Xd = X
        beta, *_ = np.linalg.lstsq(Xd, y, rcond=None)
        if self.fit_intercept:
            self.coef_, self.intercept_ = beta[:-1], float(beta[-1])
        else:
            self.coef_, self.intercept_ = beta, 0.0
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X, name="X")
        return X @ self.coef_ + self.intercept_


class RidgeRegression(BaseEstimator, RegressorMixin):
    """L2-regularized least squares (intercept unpenalized)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = None

    def fit(self, X, y, sample_weight=None) -> "RidgeRegression":
        X, y = check_X_y(X, y, y_numeric=True)
        self.n_features_in_ = X.shape[1]
        self.coef_, self.intercept_ = solve_weighted_ridge(
            X, y, sample_weight, alpha=self.alpha, fit_intercept=self.fit_intercept
        )
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X, name="X")
        return X @ self.coef_ + self.intercept_


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(Z)
    return e / e.sum(axis=1, keepdims=True)


def _newton_direction(
    Xd: np.ndarray, P: np.ndarray, hessian_base: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Solve ``H @ direction = G`` for the softmax cross-entropy Hessian.

    Parameters are laid out class-major: block ``(a, c)`` of ``H`` is
    ``Xd.T @ diag(P_a * (delta_ac - P_c)) @ Xd / n``, added to
    ``hessian_base``.
    """
    n, p = Xd.shape
    k = P.shape[1]
    H = hessian_base.copy()
    for a in range(k):
        for c in range(a, k):
            block = (Xd.T * (P[:, a] * ((a == c) - P[:, c]))) @ Xd / n
            H[a * p:(a + 1) * p, c * p:(c + 1) * p] += block
            if a != c:
                H[c * p:(c + 1) * p, a * p:(a + 1) * p] += block.T
    return np.linalg.solve(H, G.T.ravel()).reshape(k, p).T


class ConvergenceError(ValueError):
    """A solver stopped without meeting its gradient-norm tolerance.

    Raised instead of returning the last iterate, so a fitted model is
    always the optimum of its objective and never an artefact of the
    iteration budget.
    """

    def __init__(self, message: str, *, grad_norm: float, n_iter: int):
        super().__init__(message)
        self.grad_norm = grad_norm
        self.n_iter = n_iter


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial logistic regression fitted by damped Newton (IRLS).

    Minimises the mean softmax cross-entropy plus
    ``0.5 * lam * ||coef_||**2`` with ``lam = 1 / (c * n_samples)``; the
    intercept is not penalised.  Every Newton step solves the full
    ``(d + 1) k``-square Hessian system and is damped by Armijo
    backtracking; the fit stops at ``||grad|| < tol``, so the fitted
    model does not depend on ``max_iter``.  ``intercept_`` sums to zero.

    Parameters
    ----------
    c:
        Inverse regularization strength (larger = less regularization).
    max_iter:
        Cap on Newton steps.  Reaching it without ``||grad|| < tol``
        raises :class:`ConvergenceError`.
    tol:
        Gradient-norm stopping tolerance.

    Attributes
    ----------
    n_iter_:
        Newton steps taken.
    grad_norm_:
        Gradient norm at the returned parameters (``< tol``).
    """

    def __init__(
        self,
        c: float = 1.0,
        max_iter: int = 100,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ):
        if c <= 0:
            raise ValueError(f"c must be positive, got {c}")
        self.c = c
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.coef_ = None
        self.intercept_ = None
        self.classes_ = None
        self.n_iter_ = 0

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        n, d = X.shape
        k = len(self.classes_)
        Y = np.zeros((n, k))
        Y[np.arange(n), codes] = 1.0
        Xd = np.hstack([X, np.ones((n, 1))]) if self.fit_intercept else X
        p = Xd.shape[1]
        lam = 1.0 / (self.c * n)
        # penalty on the weights only; the last row is the intercept
        reg = np.full((p, 1), lam)
        if self.fit_intercept:
            reg[-1] = 0.0

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            """Objective value and class probabilities at ``theta``."""
            Z = Xd @ theta
            zmax = Z.max(axis=1, keepdims=True)
            E = np.exp(Z - zmax)
            s = E.sum(axis=1, keepdims=True)
            lse = np.log(s)[:, 0] + zmax[:, 0]
            value = np.mean(lse - np.sum(Y * Z, axis=1))
            value += 0.5 * float(np.sum(reg * theta * theta))
            return value, E / s

        # the Hessian's constant part: the penalty, and 1 added to the
        # intercept x intercept block.  A common shift of all intercepts
        # leaves the objective unchanged; the gradient is orthogonal to
        # that null direction, so closing it this way never moves along it
        hessian_base = np.diag(np.tile(reg[:, 0], k))
        if self.fit_intercept:
            icpt = np.arange(p - 1, k * p, p)
            hessian_base[np.ix_(icpt, icpt)] += 1.0

        theta = np.zeros((p, k))
        value, P = objective(theta)
        for step in range(self.max_iter + 1):
            G = Xd.T @ (P - Y) / n + reg * theta
            grad_norm = float(np.sqrt(np.sum(G * G)))
            if grad_norm < self.tol:
                break
            if step == self.max_iter:
                raise ConvergenceError(
                    f"LogisticRegression did not converge: ||grad|| = "
                    f"{grad_norm:.3g} >= tol = {self.tol:g} after "
                    f"{step} Newton steps (max_iter={self.max_iter})",
                    grad_norm=grad_norm, n_iter=step,
                )
            direction = _newton_direction(Xd, P, hessian_base, G)
            slope = float(np.sum(G * direction))
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                cand = theta - t * direction
                cand_value, cand_P = objective(cand)
                if cand_value <= value - _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                raise ConvergenceError(
                    f"LogisticRegression line search made no progress: "
                    f"||grad|| = {grad_norm:.3g} >= tol = {self.tol:g} "
                    f"after {step} Newton steps",
                    grad_norm=grad_norm, n_iter=step,
                )
            theta, value, P = cand, cand_value, cand_P
        self.n_iter_ = step
        self.grad_norm_ = grad_norm
        self.n_features_in_ = d
        if self.fit_intercept:
            self.coef_, self.intercept_ = theta[:-1], theta[-1]
        else:
            self.coef_, self.intercept_ = theta, np.zeros(k)
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X, name="X")
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered as ``classes_``."""
        return _softmax(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self._decode_labels(np.argmax(proba, axis=1))
