"""Tests for repro.nfv.telemetry."""

import numpy as np
import pytest

from repro.nfv.sfc import SLA, ServiceFunctionChain
from repro.nfv.telemetry import (
    CHAIN_METRICS,
    PER_VNF_METRICS,
    TelemetryCollector,
    feature_names_for_chain,
    vnf_of_feature,
)
from repro.nfv.vnf import VNFInstance


@pytest.fixture
def chain():
    return ServiceFunctionChain(
        "c0",
        [
            VNFInstance("firewall", 1.0, 512.0, "c0-0"),
            VNFInstance("dpi", 3.0, 3072.0, "c0-1"),
        ],
        SLA(),
    )


def raw_block(chain, n_epochs, value=0.5):
    """Raw readings: every per-VNF metric at ``value``, chain metrics 1.0."""
    per_vnf = np.full((n_epochs, chain.length * len(PER_VNF_METRICS)), value)
    return np.hstack([per_vnf, np.ones((n_epochs, len(CHAIN_METRICS)))])


class TestFeatureNames:
    def test_names_structure(self, chain):
        names = feature_names_for_chain(chain)
        assert len(names) == 2 * len(PER_VNF_METRICS) + len(CHAIN_METRICS) + 2
        assert names[0] == "vnf0_firewall_cpu_util"
        assert "vnf1_dpi_queue_ms" in names
        assert names[-1] == "tod_cos"

    def test_vnf_of_feature_roundtrip(self, chain):
        for name in feature_names_for_chain(chain):
            vnf = vnf_of_feature(name)
            if name.startswith("vnf"):
                assert vnf in (0, 1)
            else:
                assert vnf is None

    def test_vnf_of_feature_double_digit(self):
        assert vnf_of_feature("vnf12_ids_cpu_util") == 12

    def test_vnf_of_feature_non_vnf(self):
        assert vnf_of_feature("offered_kpps") is None
        assert vnf_of_feature("vnfoo_bad") is None


class TestTelemetryCollector:
    def test_batch_shape(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.0)
        fm = collector.measure(raw_block(chain, 5), np.arange(5), 288)
        assert fm.shape == (5, len(collector.feature_names))

    def test_noise_free_values_exact(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.0)
        fm = collector.measure(raw_block(chain, 1), np.arange(1), 288)
        assert fm.column("vnf0_firewall_cpu_util")[0] == 0.5
        assert fm.column("offered_kpps")[0] == 1.0

    def test_noise_perturbs_but_bounds_rates(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.3, random_state=0)
        fm = collector.measure(raw_block(chain, 200), np.arange(200), 288)
        cpu = fm.column("vnf0_firewall_cpu_util")
        assert cpu.std() > 0.0
        assert cpu.min() >= 0.0 and cpu.max() <= 1.2
        drops = fm.column("vnf0_firewall_drop_rate")
        assert drops.max() <= 1.0

    def test_time_encoding_on_unit_circle(self, chain):
        collector = TelemetryCollector(chain, noise_sigma=0.0)
        fm = collector.measure(raw_block(chain, 10), np.arange(10) * 30, 288)
        radius = fm.column("tod_sin") ** 2 + fm.column("tod_cos") ** 2
        np.testing.assert_allclose(radius, 1.0, atol=1e-12)

    def test_wrong_vnf_count_rejected(self, chain):
        collector = TelemetryCollector(chain)
        one_vnf = raw_block(chain, 1)[:, len(PER_VNF_METRICS):]
        with pytest.raises(ValueError, match="raw metric columns"):
            collector.measure(one_vnf, np.arange(1), 288)

    def test_empty_batch_rejected(self, chain):
        with pytest.raises(ValueError, match="no epochs"):
            TelemetryCollector(chain).measure(raw_block(chain, 0), np.arange(0), 288)

    def test_negative_noise_rejected(self, chain):
        with pytest.raises(ValueError, match="noise_sigma"):
            TelemetryCollector(chain, noise_sigma=-0.1)

    def test_noise_does_not_depend_on_batching(self, chain):
        raw = raw_block(chain, 30)
        whole = TelemetryCollector(chain, noise_sigma=0.3, random_state=1)
        split = TelemetryCollector(chain, noise_sigma=0.3, random_state=1)
        parts = [
            split.measure(raw[a:b], np.arange(a, b), 288).values
            for a, b in ((0, 1), (1, 12), (12, 30))
        ]
        assert (
            whole.measure(raw, np.arange(30), 288).values.tobytes()
            == np.vstack(parts).tobytes()
        )
