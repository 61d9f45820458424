"""Memoization of KernelSHAP coalition designs.

A coalition design (masks plus kernel weights) depends only on the
feature dimension and sampling configuration, never on the model or
the explained instance.  Designs are keyed by ``(d, n_samples, paired,
seed)`` and cached only for integer seeds (a live ``Generator`` must
advance, so it bypasses the cache); a hit is therefore exact.  Model
outputs are never memoized, so a model refit in place behind the same
predict function always gets a fresh ``expected_value_``.

Every operation takes the lock, because the thread backend explains
chunks concurrently through the module-level cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["ExplainerCache", "cache_stats", "clear_cache", "coalition_design",
           "get_cache"]

#: Distinct coalition designs kept (LRU) across all explainers.
MAX_DESIGNS = 64


class ExplainerCache:
    """LRU cache of read-only coalition designs."""

    def __init__(self):
        self._designs: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def coalition_design(self, key: tuple, build_fn):
        """Memoize ``build_fn() -> (masks, weights)`` under ``key``, which
        must fully determine the design.  Arrays are stored read-only and
        shared between callers."""
        with self._lock:
            if key in self._designs:
                self.hits += 1
                self._designs.move_to_end(key)
                return self._designs[key]
        # build outside the lock: racing threads may build the same
        # design twice, but it is deterministic, so either copy is valid
        masks, weights = build_fn()
        masks = np.asarray(masks)
        weights = np.asarray(weights, dtype=float)
        masks.flags.writeable = False
        weights.flags.writeable = False
        with self._lock:
            self.misses += 1
            if key not in self._designs:
                self._designs[key] = (masks, weights)
            while len(self._designs) > MAX_DESIGNS:
                self._designs.popitem(last=False)
            return self._designs[key]

    def clear(self) -> None:
        """Drop every cached design and reset the hit/miss counters."""
        with self._lock:
            self._designs.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Hit/miss counters and the current design count."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "design_entries": len(self._designs),
            }


_GLOBAL_CACHE = ExplainerCache()


def get_cache() -> ExplainerCache:
    """The process-wide cache shared by all explainers."""
    return _GLOBAL_CACHE


def coalition_design(key: tuple, build_fn):
    """Module-level shortcut to the global cache."""
    return _GLOBAL_CACHE.coalition_design(key, build_fn)


def clear_cache() -> None:
    """Reset the global cache (useful between timed experiments)."""
    _GLOBAL_CACHE.clear()


def cache_stats() -> dict:
    """Hit/miss statistics of the global cache."""
    return _GLOBAL_CACHE.stats()
