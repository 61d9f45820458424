"""Queueing-theory primitives used by the VNF performance model.

All functions take arrival rate ``lam`` and service rate ``mu`` in the
same (arbitrary) unit and return waiting/sojourn times in units of
``1/mu``'s time base.  The simulator uses these for per-VNF queueing
delay; the M/M/1/K loss formula supplies drop probabilities below
saturation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mm1_waiting_time",
    "mm1_queue_length",
    "mg1_waiting_time",
    "mmc_waiting_time",
    "mm1k_loss_probability",
]

#: Utilization is clamped here so delay formulas stay finite; the
#: simulator represents true overload through packet drops instead.
MAX_STABLE_UTILIZATION = 0.995


def _validate_rates(lam, mu) -> tuple[np.ndarray, np.ndarray]:
    """Check the rates (scalars or arrays) and return them as arrays."""
    lam_a, mu_a = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    if np.any(lam_a < 0):
        raise ValueError(f"arrival rate must be >= 0, got {lam}")
    if np.any(mu_a <= 0):
        raise ValueError(f"service rate must be positive, got {mu}")
    return lam_a, mu_a


def _like_input(result: np.ndarray, *inputs):
    """``result`` as a ``float`` when every input was a scalar."""
    return result if any(np.ndim(x) for x in inputs) else float(result)


def mm1_waiting_time(lam: float, mu: float) -> float:
    """Mean time in queue (excluding service) for an M/M/1 queue.

    ``W_q = rho / (mu - lam)``.  Utilization is clamped at
    :data:`MAX_STABLE_UTILIZATION` so the result stays finite; overload
    is modelled separately as loss.
    """
    _validate_rates(lam, mu)
    rho = min(lam / mu, MAX_STABLE_UTILIZATION)
    return rho / (mu * (1.0 - rho))


def mm1_queue_length(lam: float, mu: float) -> float:
    """Mean number waiting in queue, ``L_q = rho^2 / (1 - rho)``."""
    _validate_rates(lam, mu)
    rho = min(lam / mu, MAX_STABLE_UTILIZATION)
    return rho * rho / (1.0 - rho)


def mg1_waiting_time(lam, mu, scv=1.0):
    """Pollaczek–Khinchine mean waiting time for M/G/1.

    Element-wise over array inputs; scalar inputs return a ``float``.

    Parameters
    ----------
    scv:
        Squared coefficient of variation of the service time;
        ``scv=1`` recovers M/M/1, ``scv=0`` gives M/D/1 (half the wait).
    """
    lam_a, mu_a = _validate_rates(lam, mu)
    scv_a = np.asarray(scv, dtype=float)
    if np.any(scv_a < 0):
        raise ValueError(f"scv must be >= 0, got {scv}")
    rho = np.minimum(lam_a / mu_a, MAX_STABLE_UTILIZATION)
    wait = (1.0 + scv_a) / 2.0 * rho / (mu_a * (1.0 - rho))
    return _like_input(wait, lam, mu, scv)


def erlang_c(c: int, offered: float) -> float:
    """Erlang-C probability that an arrival waits, for ``c`` servers and
    offered load ``offered = lam/mu`` Erlangs (must be < c)."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    if offered < 0:
        raise ValueError(f"offered load must be >= 0, got {offered}")
    offered = min(offered, c * MAX_STABLE_UTILIZATION)
    # sum_{k<c} a^k/k! computed iteratively for numerical stability
    term = 1.0
    series = 1.0
    for k in range(1, c):
        term *= offered / k
        series += term
    term *= offered / c
    top = term * c / (c - offered)
    return top / (series + top)


def mmc_waiting_time(lam: float, mu: float, c: int) -> float:
    """Mean queueing delay for M/M/c (``mu`` is per-server rate)."""
    _validate_rates(lam, mu)
    offered = lam / mu
    offered = min(offered, c * MAX_STABLE_UTILIZATION)
    p_wait = erlang_c(c, offered)
    return p_wait / (c * mu - mu * offered)


def _pow_or_inf(base: float, k: int) -> float:
    """Python's ``base ** k`` (libm ``pow``), ``inf`` on overflow.

    Kept scalar on purpose: ``np.power`` differs from libm ``pow`` in the
    last ulp on some inputs, which would change every simulated byte.
    """
    try:
        return base**k
    except OverflowError:
        return math.inf


def mm1k_loss_probability(lam, mu, k: int):
    """Blocking probability of an M/M/1/K queue with buffer size ``k``.

    ``P_loss = (1-rho) rho^K / (1 - rho^{K+1})`` for ``rho != 1`` and
    ``1/(K+1)`` at ``rho == 1``.  For ``rho > 1`` the formula tends to
    ``1 - 1/rho`` for large K, and is exactly that in float64 once
    ``rho^{K+1}`` overflows.  Element-wise over array ``lam``/``mu``;
    scalar inputs return a ``float``.
    """
    lam_a, mu_a = _validate_rates(lam, mu)
    if k < 1:
        raise ValueError(f"buffer size k must be >= 1, got {k}")
    rho = lam_a / mu_a
    rho_k = np.reshape([_pow_or_inf(r, k) for r in rho.ravel().tolist()], rho.shape)
    diff = np.abs(1.0 - rho)  # math.isclose(rho, 1.0, rel_tol=1e-12)
    near_one = np.isfinite(rho) & ((diff <= 1e-12) | (diff <= np.abs(1e-12 * rho)))
    with np.errstate(all="ignore"):
        loss = np.where(
            np.isfinite(rho * rho_k),
            (1.0 - rho) * rho_k / (1.0 - rho * rho_k),
            1.0 - 1.0 / rho,
        )
    loss = np.where(near_one, 1.0 / (k + 1), loss)
    return _like_input(np.where(lam_a == 0, 0.0, loss), lam, mu)
