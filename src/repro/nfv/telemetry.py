"""Telemetry schema and collection.

Defines the named feature vector the monitoring plane exports each
epoch, and a collector that applies measurement noise (telemetry is
never perfectly clean) to a batch of raw readings and assembles the
:class:`~repro.utils.tabular.FeatureMatrix`.

Feature layout for a chain of K VNFs (names carry the VNF position and
type so explanations are readable by an operator):

* per VNF ``i`` of type ``T``:
  ``vnf{i}_{T}_cpu_util``, ``vnf{i}_{T}_mem_util``,
  ``vnf{i}_{T}_queue_ms``, ``vnf{i}_{T}_drop_rate``,
  ``vnf{i}_{T}_host_pressure`` (CPU demand / cores on its server);
* chain level: ``offered_kpps``, ``active_kflows``, ``burstiness``,
  ``propagation_ms``;
* time of day: ``tod_sin``, ``tod_cos``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import check_random_state
from repro.utils.tabular import FeatureMatrix

__all__ = [
    "PER_VNF_METRICS",
    "CHAIN_METRICS",
    "TIME_METRICS",
    "feature_names_for_chain",
    "vnf_of_feature",
    "TelemetryCollector",
]

#: Per-VNF telemetry metrics, in column order.
PER_VNF_METRICS = (
    "cpu_util",
    "mem_util",
    "queue_ms",
    "drop_rate",
    "host_pressure",
)

#: Chain-level metrics, in column order.
CHAIN_METRICS = ("offered_kpps", "active_kflows", "burstiness", "propagation_ms")

#: Time-of-day encoding.
TIME_METRICS = ("tod_sin", "tod_cos")

#: Rate metrics and the value their noisy readings are clipped to.
_RATE_CEILINGS = {"cpu_util": 1.2, "mem_util": 1.2, "drop_rate": 1.0}


def feature_names_for_chain(chain) -> list[str]:
    """Full, ordered feature-name list for one monitored chain."""
    names = []
    for i, inst in enumerate(chain.instances):
        for metric in PER_VNF_METRICS:
            names.append(f"vnf{i}_{inst.vnf_type}_{metric}")
    names.extend(CHAIN_METRICS)
    names.extend(TIME_METRICS)
    return names


def vnf_of_feature(name: str) -> int | None:
    """VNF index encoded in a feature name, or ``None`` for chain-level
    features.  Inverse of the naming convention above."""
    if not name.startswith("vnf"):
        return None
    head = name.split("_", 1)[0]
    try:
        return int(head[3:])
    except ValueError:
        return None


class TelemetryCollector:
    """Turns raw per-epoch measurements into a noisy feature matrix.

    Parameters
    ----------
    chain:
        The monitored (already-placed) chain; fixes the schema.
    noise_sigma:
        Relative gaussian measurement noise applied to utilization and
        delay readings (0 disables noise).
    """

    def __init__(self, chain, noise_sigma: float = 0.02, random_state=None):
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self.chain = chain
        self.noise_sigma = noise_sigma
        self._rng = check_random_state(random_state)
        self.feature_names = feature_names_for_chain(chain)
        raw_metrics = [*PER_VNF_METRICS * chain.length, *CHAIN_METRICS]
        self._ceiling = np.array([_RATE_CEILINGS.get(m, np.inf) for m in raw_metrics])

    def measure(
        self, raw: np.ndarray, epochs: np.ndarray, period_epochs: int
    ) -> FeatureMatrix:
        """Render one batch of epochs as a named feature matrix.

        ``raw`` has one row per epoch and the columns of
        :data:`PER_VNF_METRICS` for every VNF in chain order, then
        :data:`CHAIN_METRICS`; ``epochs`` holds the rows' epoch indices
        (for the time-of-day encoding).  Noise is one gaussian draw per
        reading, taken in row-major order, so the values do not depend
        on how the horizon is split into batches.  Noisy rates are
        clipped to ``[0, 1.2]`` (``[0, 1]`` for drops) and every other
        reading to ``>= 0``.
        """
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2 or raw.shape[1] != self._ceiling.size:
            raise ValueError(
                f"expected {self._ceiling.size} raw metric columns for "
                f"{self.chain.length} VNFs, got shape {raw.shape}"
            )
        if not len(raw):
            raise ValueError("no epochs to measure")
        values = raw
        if self.noise_sigma != 0.0:
            noisy = raw * (1.0 + self._rng.normal(0.0, self.noise_sigma, raw.shape))
            # compare-and-select, not np.maximum: a reading of -0.0 stays
            # -0.0, as Python's max(v, 0.0) and a scalar np.clip keep it
            values = np.where(0.0 > noisy, 0.0, noisy)
            values = np.where(values > self._ceiling, self._ceiling, values)
        angle = 2.0 * np.pi * (np.asarray(epochs) % period_epochs) / period_epochs
        return FeatureMatrix(
            np.column_stack([values, np.sin(angle), np.cos(angle)]),
            self.feature_names,
        )
