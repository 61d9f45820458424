"""Cross-explainer agreement measures (experiment E7).

Different explainers rarely produce identical attribution values, but a
trustworthy deployment wants them to at least *rank* features
similarly.  We measure Spearman/Kendall rank correlation of
|attributions| and top-k Jaccard overlap.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spearman_correlation",
    "kendall_tau",
    "topk_jaccard",
    "agreement_matrix",
]


def _validate_pair(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 features to correlate")
    return a, b


def _average_ranks(a):
    """1-based ranks of ``a``; tied values share the mean of their ranks."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _rank_pair(a, b, by_abs):
    """Ranks of both vectors, or ``None`` when either is constant or NaN.

    Rank correlation is undefined for those inputs; callers report 0.
    """
    a, b = _validate_pair(a, b)
    if by_abs:
        a, b = np.abs(a), np.abs(b)
    if not (np.ptp(a) > 0 and np.ptp(b) > 0):
        return None
    return _average_ranks(a), _average_ranks(b)


def spearman_correlation(a, b, *, by_abs: bool = True) -> float:
    """Spearman rank correlation of two attribution vectors."""
    ranks = _rank_pair(a, b, by_abs)
    if ranks is None:
        return 0.0
    # Element [1, 0], not [0, 1]: the two can differ in the last ulp, and
    # the report goldens were pinned with [1, 0].
    return float(np.corrcoef(*ranks)[1, 0])


def kendall_tau(a, b, *, by_abs: bool = True) -> float:
    """Kendall's tau-b of two attribution vectors."""
    ranks = _rank_pair(a, b, by_abs)
    if ranks is None:
        return 0.0
    i, j = np.triu_indices(len(ranks[0]), 1)
    sa, sb = (np.sign(r[i] - r[j]).astype(np.int64) for r in ranks)
    pairs = len(i)
    tau = (
        int(sa @ sb)
        / np.sqrt(pairs - np.count_nonzero(sa == 0))
        / np.sqrt(pairs - np.count_nonzero(sb == 0))
    )
    return float(np.clip(tau, -1.0, 1.0))


def topk_jaccard(a, b, k: int = 5, *, by_abs: bool = True) -> float:
    """Jaccard overlap of the two top-k feature sets."""
    a, b = _validate_pair(a, b)
    if not 1 <= k <= len(a):
        raise ValueError(f"k must be in [1, {len(a)}], got {k}")
    key_a = np.abs(a) if by_abs else a
    key_b = np.abs(b) if by_abs else b
    top_a = set(np.argsort(-key_a)[:k].tolist())
    top_b = set(np.argsort(-key_b)[:k].tolist())
    return len(top_a & top_b) / len(top_a | top_b)


def agreement_matrix(
    attribution_sets: dict[str, np.ndarray],
    *,
    measure: str = "spearman",
    k: int = 5,
) -> tuple[list[str], np.ndarray]:
    """Pairwise agreement between named attribution vectors.

    ``attribution_sets`` maps method name to an attribution vector (or
    to a 2-D array of per-instance attributions, in which case the
    per-instance agreements are averaged).

    Returns ``(names, matrix)``.
    """
    measures = {
        "spearman": spearman_correlation,
        "kendall": kendall_tau,
        "jaccard": lambda a, b: topk_jaccard(a, b, k=k),
    }
    if measure not in measures:
        raise ValueError(
            f"unknown measure {measure!r}; choose from {sorted(measures)}"
        )
    fn = measures[measure]
    names = list(attribution_sets)
    arrays = {}
    n_rows = None
    for name in names:
        arr = np.asarray(attribution_sets[name], dtype=float)
        arr = arr.reshape(1, -1) if arr.ndim == 1 else arr
        if n_rows is None:
            n_rows = len(arr)
        elif len(arr) != n_rows:
            raise ValueError(
                "all attribution sets must cover the same instances"
            )
        arrays[name] = arr
    matrix = np.eye(len(names))
    for i, a_name in enumerate(names):
        for j in range(i + 1, len(names)):
            b_name = names[j]
            per_row = [
                fn(arrays[a_name][r], arrays[b_name][r]) for r in range(n_rows)
            ]
            matrix[i, j] = matrix[j, i] = float(np.mean(per_row))
    return names, matrix
