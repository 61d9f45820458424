"""Differential test: the batch-vectorized simulator against the
epoch-at-a-time scalar loop in ``tests/oracles/scalar_simulator.py``.

Both must produce the same bytes — features, latency, loss, SLA labels,
root causes and culprits — for every catalog scenario, any batch size,
any telemetry noise level (0.6 drives readings negative and into the
clips), hand-written schedules with simultaneous faults, and a leak
that grows across many batch boundaries.
"""

import functools

import numpy as np
import pytest

from oracles import scalar_simulator as oracle
from repro.nfv import queueing
from repro.nfv.faults import FaultEvent, FaultKind
from repro.nfv.scenarios import build_scenario, list_scenarios
from repro.nfv.simulator import Simulator, build_testbed
from repro.nfv.telemetry import (
    CHAIN_METRICS,
    PER_VNF_METRICS,
    TelemetryCollector,
    feature_names_for_chain,
)
from repro.utils.rng import check_random_state

EPOCHS = 240
BATCHES = (1, 7, EPOCHS)
NOISES = (0.0, 0.02, 0.6)


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()  # also the sign of zero


def assert_identical(vectorized, scalar) -> None:
    """Same batches, same bytes (streams are compared batch by batch)."""
    vec_batches, ref_batches = list(vectorized), list(scalar)
    assert [b.start_epoch for b in vec_batches] == [
        b.start_epoch for b in ref_batches
    ]
    for got, want in zip(vec_batches, ref_batches):
        assert got.features.feature_names == want.features.feature_names
        assert_same_bytes(got.features.values, want.features.values)
        assert_same_bytes(got.latency_ms, want.latency_ms)
        assert_same_bytes(got.loss_rate, want.loss_rate)
        assert_same_bytes(got.sla_violation, want.sla_violation)
        assert np.array_equal(got.root_cause, want.root_cause)
        assert got.root_cause.dtype == want.root_cause.dtype
        assert got.culprit_vnfs == want.culprit_vnfs


def run_both(testbed, n_epochs, batch_epochs, *, seed, sim_kwargs=None,
             **fault_kwargs):
    kwargs = dict(random_state=seed, **(sim_kwargs or {}))
    return (
        Simulator(testbed, **kwargs).stream(
            n_epochs, batch_epochs=batch_epochs, **fault_kwargs
        ),
        oracle.ScalarSimulator(testbed, **kwargs).stream(
            n_epochs, batch_epochs=batch_epochs, **fault_kwargs
        ),
    )


@functools.lru_cache(maxsize=None)
def _spec(name, seed):
    return build_scenario(name, random_state=seed)


@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("batch_epochs", BATCHES)
@pytest.mark.parametrize("seed", (11, 29))
@pytest.mark.parametrize("name", list_scenarios())
def test_catalog_scenarios_match_scalar_loop(name, seed, batch_epochs, noise):
    spec = _spec(name, seed)
    sim_kwargs = {**spec.simulator_kwargs, "measurement_noise": noise}
    assert_identical(*run_both(
        spec.testbed, EPOCHS, batch_epochs, seed=seed, sim_kwargs=sim_kwargs,
        fault_injector=spec.injector,
    ))


@pytest.fixture(scope="module")
def testbed():
    return build_testbed(random_state=0)


def _shared_server(testbed):
    """A server hosting a monitored VNF and a background VNF."""
    background = {
        inst.server_id
        for chain in testbed.background_chains
        for inst in chain.instances
    }
    shared = [
        inst.server_id for inst in testbed.chain.instances
        if inst.server_id in background
    ]
    assert shared, "the canonical testbed co-locates chains"
    return shared[0]


def _overlapping_schedule(testbed):
    """Simultaneous faults of every interacting kind, with ties."""
    def event(kind, start, duration, severity, **target):
        return FaultEvent(kind, start, duration, severity, **target)

    return [
        # two leaks on one VNF: summed growth while both are active
        event(FaultKind.MEMORY_LEAK, 10, 60, 0.7, vnf_index=1),
        event(FaultKind.MEMORY_LEAK, 40, 50, 0.9, vnf_index=1),
        # a config error on a leaking VNF (same start: first listed wins)
        event(FaultKind.CONFIG_ERROR, 100, 40, 0.6, vnf_index=3),
        event(FaultKind.MEMORY_LEAK, 100, 60, 0.5, vnf_index=3),
        event(FaultKind.CONFIG_ERROR, 120, 10, 0.9, vnf_index=3),
        # chain-level faults compounding
        event(FaultKind.TRAFFIC_SURGE, 150, 50, 0.8),
        event(FaultKind.LINK_DEGRADATION, 140, 40, 0.5),
        event(FaultKind.TRAFFIC_SURGE, 170, 5, 0.3),
        # a noisy neighbour on a server shared with a background chain
        event(FaultKind.CPU_CONTENTION, 60, 120, 0.9,
              server_id=_shared_server(testbed)),
        # an index past the chain: labelled as the culprit, leaks nothing
        event(FaultKind.MEMORY_LEAK, 200, 20, 0.4, vnf_index=9),
    ]


@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("batch_epochs", BATCHES)
def test_overlapping_faults_match_scalar_loop(testbed, batch_epochs, noise):
    assert_identical(*run_both(
        testbed, EPOCHS, batch_epochs, seed=4,
        sim_kwargs={"measurement_noise": noise},
        fault_events=_overlapping_schedule(testbed),
    ))


@pytest.mark.parametrize("batch_epochs", (7, 64))
def test_long_leak_crosses_batch_boundaries(testbed, batch_epochs):
    events = [
        FaultEvent(FaultKind.MEMORY_LEAK, 30, 1500, 0.05, vnf_index=4),
        FaultEvent(FaultKind.MEMORY_LEAK, 1600, 300, 0.02, vnf_index=4),
        FaultEvent(FaultKind.MEMORY_LEAK, 1700, 250, 0.03, vnf_index=0),
    ]
    assert_identical(*run_both(
        testbed, 2000, batch_epochs, seed=8, fault_events=events,
    ))


def test_run_matches_scalar_loop(testbed):
    events = _overlapping_schedule(testbed)
    got = Simulator(testbed, random_state=2).run(EPOCHS, fault_events=events)
    want = oracle.ScalarSimulator(testbed, random_state=2).run(
        EPOCHS, fault_events=events
    )
    assert_same_bytes(got.features.values, want.features.values)
    assert_same_bytes(got.latency_ms, want.latency_ms)
    assert got.culprit_vnfs == want.culprit_vnfs


@pytest.mark.parametrize("sigma", (0.0, 0.3, 0.6))
def test_collector_matches_per_reading_noise(testbed, sigma):
    """Edge readings: zeros (signed zeros after negative noise), rates
    at and past their ceilings, large delays."""
    chain = testbed.chain
    gen = check_random_state(0)
    readings = [0.0, 1.2, 1.19, 1.0, 0.99, 40.0, 1e-300]
    n = 50
    raw = gen.choice(readings, size=(n, len(feature_names_for_chain(chain)) - 2))
    epochs = np.arange(n) * 7
    got = TelemetryCollector(
        chain, noise_sigma=sigma, random_state=5
    ).measure(raw, epochs, 288)
    ref = oracle.ScalarTelemetryCollector(chain, noise_sigma=sigma, random_state=5)
    m, k = len(PER_VNF_METRICS), len(PER_VNF_METRICS) * chain.length
    for row, t in zip(raw.tolist(), epochs.tolist()):
        ref.record_epoch(
            vnf_metrics=[
                dict(zip(PER_VNF_METRICS, row[i:i + m])) for i in range(0, k, m)
            ],
            chain_metrics=dict(zip(CHAIN_METRICS, row[k:])),
            epoch=t,
            period_epochs=288,
        )
    assert_same_bytes(got.values, ref.flush().values)


def _queue_inputs():
    gen = check_random_state(1)
    lam = np.concatenate([
        gen.uniform(0.0, 5.0, 4000),
        [0.0, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-11, 2.0, 1.5, 3.0],
    ])
    mu = np.concatenate([gen.uniform(0.1, 5.0, 4000), np.ones(8)])
    return lam, mu


@pytest.mark.parametrize("k", (1, 2, 64, 646, 1023, 1750, 10_000))
def test_mm1k_arrays_match_scalar_formula(k):
    lam, mu = _queue_inputs()
    want = np.array([
        oracle.mm1k_loss_probability(a, b, k)
        for a, b in zip(lam.tolist(), mu.tolist())
    ])
    assert_same_bytes(queueing.mm1k_loss_probability(lam, mu, k), want)


def test_mg1_arrays_match_scalar_formula():
    lam, mu = _queue_inputs()
    scv = check_random_state(2).uniform(0.0, 4.0, lam.size)
    want = np.array([
        oracle.mg1_waiting_time(a, b, c)
        for a, b, c in zip(lam.tolist(), mu.tolist(), scv.tolist())
    ])
    assert_same_bytes(queueing.mg1_waiting_time(lam, mu, scv), want)
