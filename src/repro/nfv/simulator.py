"""Epoch-based NFV performance simulator.

For every epoch the simulator:

1. draws offered load for the monitored chain and all background
   chains (which share servers and create contention),
2. applies any active faults (see :mod:`repro.nfv.faults`),
3. accounts CPU demand per server; oversubscribed servers scale every
   hosted VNF's capacity down proportionally,
4. walks the monitored chain VNF by VNF: M/M/1/K loss, M/G/1 queueing
   delay (scaled by a batch factor — software data planes process
   packets in batches, which inflates queueing delay relative to the
   per-packet ideal), memory pressure with a swap penalty,
5. records noisy telemetry and the ground-truth labels (end-to-end
   latency, loss, SLA violation, root cause, culprit VNF set).

Epochs are simulated a batch at a time, as arrays over the batch's
epochs (see :meth:`Simulator._run_batch`); the values are those of the
per-epoch scalar model, bit for bit, whatever the batch size.

Units: kpps ≡ packets/ms, so queueing formulas fed kpps rates directly
return milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nfv.faults import (
    CHAIN_LEVEL_FAULTS,
    FaultEvent,
    FaultKind,
    NO_FAULT,
)
from repro.nfv.placement import FirstFitPlacement, WorstFitPlacement
from repro.nfv.queueing import mg1_waiting_time, mm1k_loss_probability
from repro.nfv.sfc import SLA, ServiceFunctionChain
from repro.nfv.telemetry import TelemetryCollector
from repro.nfv.topology import NfviTopology
from repro.nfv.traffic import TrafficModel
from repro.nfv.vnf import VNFInstance
from repro.utils.rng import check_random_state, spawn_rngs
from repro.utils.tabular import FeatureMatrix

__all__ = [
    "EpochBatch",
    "SimulationStream",
    "Testbed",
    "Simulator",
    "SimulationResult",
    "build_testbed",
]

#: Memory utilization above which the swap penalty kicks in.
SWAP_THRESHOLD = 0.9
#: Floor on the capacity multiplier under heavy swapping.
SWAP_FLOOR = 0.25
#: Leak growth per epoch at severity 1.0, as a fraction of allocation.
LEAK_RATE_PER_EPOCH = 0.04


@dataclass
class Testbed:
    """A placed deployment the simulator can run.

    Attributes
    ----------
    topology:
        The NFVI with all chains already placed.
    chain:
        The monitored chain (features/labels are recorded for it).
    background_chains:
        Chains that share servers with the monitored chain and create
        contention, with their own traffic models.
    traffic:
        Traffic model of the monitored chain.
    background_traffic:
        One traffic model per background chain.
    """

    topology: NfviTopology
    chain: ServiceFunctionChain
    traffic: TrafficModel
    background_chains: list[ServiceFunctionChain] = field(default_factory=list)
    background_traffic: list[TrafficModel] = field(default_factory=list)

    def __post_init__(self):
        if len(self.background_chains) != len(self.background_traffic):
            raise ValueError(
                "background_chains and background_traffic must align"
            )
        for inst in self.chain.instances:
            if inst.server_id is None:
                raise ValueError(
                    f"instance {inst.instance_id} is not placed; "
                    "run placement before building the testbed"
                )


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes
    ----------
    features:
        Noisy telemetry, one row per epoch (named columns).
    latency_ms, loss_rate:
        Ground-truth end-to-end metrics of the monitored chain.
    sla_violation:
        Binary labels (1 = violated).
    root_cause:
        Per-epoch string label: a :class:`FaultKind` value or ``"none"``.
    culprit_vnfs:
        Per-epoch tuple of VNF indices directly affected by the active
        fault (empty when no fault, or for chain-level faults).
    events:
        The injected fault schedule.
    chain:
        The monitored chain (for resolving VNF indices in reports).
    """

    features: FeatureMatrix
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    sla_violation: np.ndarray
    root_cause: np.ndarray
    culprit_vnfs: list[tuple[int, ...]]
    events: list[FaultEvent]
    chain: ServiceFunctionChain | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.latency_ms)

    @property
    def violation_rate(self) -> float:
        """Fraction of epochs that violated the SLA (0.0 for an empty
        run — never NaN, so downstream aggregation stays warning-free)."""
        if self.n_epochs == 0:
            return 0.0
        return float(np.mean(self.sla_violation))

    def summary(self) -> str:
        """One-paragraph run summary for logs and examples."""
        if self.n_epochs == 0:
            return "0 epochs | empty run (no telemetry recorded)"
        causes, counts = np.unique(self.root_cause, return_counts=True)
        cause_txt = ", ".join(f"{c}: {n}" for c, n in zip(causes, counts))
        return (
            f"{self.n_epochs} epochs | violation rate "
            f"{self.violation_rate:.1%} | median latency "
            f"{np.median(self.latency_ms):.2f} ms | root causes: {cause_txt}"
        )


@dataclass
class EpochBatch:
    """A contiguous slice of simulated epochs, emitted by a stream.

    The streaming unit of telemetry: everything
    :class:`SimulationResult` records, restricted to epochs
    ``[start_epoch, end_epoch)``.  Batches from one stream are disjoint,
    ordered, and cover the horizon exactly, so concatenating them
    reproduces the materialized run byte for byte (see
    :meth:`SimulationStream.collect`).
    """

    start_epoch: int
    features: FeatureMatrix
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    sla_violation: np.ndarray
    root_cause: np.ndarray
    culprit_vnfs: list[tuple[int, ...]]

    @property
    def n_epochs(self) -> int:
        return len(self.latency_ms)

    @property
    def end_epoch(self) -> int:
        """One past the last epoch in this batch."""
        return self.start_epoch + self.n_epochs

    @property
    def violation_rate(self) -> float:
        if self.n_epochs == 0:
            return 0.0
        return float(np.mean(self.sla_violation))


class SimulationStream:
    """Single-pass iterator over :class:`EpochBatch` objects.

    Produced by :meth:`Simulator.stream` (and, one level up,
    :meth:`repro.nfv.scenarios.ScenarioSpec.stream`).  The fault
    schedule, traffic traces, and chain metadata are resolved eagerly —
    ``events``, ``chain``, and ``feature_names`` are available before
    the first batch — while telemetry is simulated lazily, one batch at
    a time, as the stream is consumed.

    Attributes
    ----------
    chain:
        The monitored chain (for resolving VNF indices in reports).
    events:
        The full injected fault schedule (drawn up front, like
        :meth:`Simulator.run` does).
    feature_names:
        Telemetry schema of every batch's ``features``.
    n_epochs, batch_epochs:
        Total horizon and the batch granularity; every batch has
        ``batch_epochs`` epochs except possibly the last.
    """

    def __init__(self, batches, *, chain, events, feature_names,
                 n_epochs: int, batch_epochs: int):
        self._batches = batches
        self.chain = chain
        self.events = events
        self.feature_names = list(feature_names)
        self.n_epochs = int(n_epochs)
        self.batch_epochs = int(batch_epochs)

    def __iter__(self):
        return self._batches

    def collect(self) -> SimulationResult:
        """Drain the (remaining) stream into a :class:`SimulationResult`.

        Streaming the full horizon and collecting reproduces
        :meth:`Simulator.run` byte for byte under the same seed — the
        contract ``tests/nfv/test_simulator_stream.py`` enforces.
        """
        batches = list(self._batches)
        if not batches:
            raise ValueError("stream is exhausted; nothing to collect")
        culprits: list[tuple[int, ...]] = []
        for batch in batches:
            culprits.extend(batch.culprit_vnfs)
        return SimulationResult(
            features=FeatureMatrix(
                np.vstack([b.features.values for b in batches]),
                self.feature_names,
            ),
            latency_ms=np.concatenate([b.latency_ms for b in batches]),
            loss_rate=np.concatenate([b.loss_rate for b in batches]),
            sla_violation=np.concatenate([b.sla_violation for b in batches]),
            root_cause=np.concatenate([b.root_cause for b in batches]),
            culprit_vnfs=culprits,
            events=self.events,
            chain=self.chain,
        )


class Simulator:
    """Runs a :class:`Testbed` for a number of epochs.

    Parameters
    ----------
    testbed:
        The placed deployment to simulate.
    batch_factor:
        Multiplier on queueing delay representing batched packet
        processing in software data planes (DPDK-style polling).
    buffer_pkts:
        Per-VNF queue size for the M/M/1/K loss model.
    measurement_noise:
        Relative telemetry noise (see
        :class:`~repro.nfv.telemetry.TelemetryCollector`).
    service_scv:
        Squared coefficient of variation of VNF service times
        (1.0 = exponential/M/M/1-like, 0.0 = deterministic/M/D/1).
    """

    def __init__(
        self,
        testbed: Testbed,
        *,
        batch_factor: float = 32.0,
        buffer_pkts: int = 64,
        measurement_noise: float = 0.02,
        service_scv: float = 1.0,
        random_state=None,
    ):
        if batch_factor <= 0:
            raise ValueError(f"batch_factor must be positive, got {batch_factor}")
        if buffer_pkts < 1:
            raise ValueError(f"buffer_pkts must be >= 1, got {buffer_pkts}")
        if service_scv < 0:
            raise ValueError(f"service_scv must be >= 0, got {service_scv}")
        self.testbed = testbed
        self.batch_factor = batch_factor
        self.buffer_pkts = buffer_pkts
        self.measurement_noise = measurement_noise
        self.service_scv = service_scv
        self.random_state = random_state

    # ------------------------------------------------------------------
    def run(
        self,
        n_epochs: int,
        *,
        fault_events: list[FaultEvent] | None = None,
        fault_injector=None,
    ) -> SimulationResult:
        """Simulate ``n_epochs`` epochs and return the labelled telemetry.

        Provide either an explicit ``fault_events`` schedule, a
        ``fault_injector`` (a schedule is drawn), or neither (fault-free
        run — violations then stem only from natural overload).

        Implemented as one maximal batch of :meth:`stream`, so the
        materialized and streaming paths cannot drift apart.
        """
        return self.stream(
            n_epochs,
            batch_epochs=n_epochs,
            fault_events=fault_events,
            fault_injector=fault_injector,
        ).collect()

    def stream(
        self,
        n_epochs: int,
        *,
        batch_epochs: int = 64,
        fault_events: list[FaultEvent] | None = None,
        fault_injector=None,
    ) -> SimulationStream:
        """Simulate lazily, yielding :class:`EpochBatch` slices.

        The online counterpart of :meth:`run`: setup (RNG spawning,
        fault schedule, traffic traces) happens eagerly and in exactly
        the same order as :meth:`run`, then epochs are simulated only as
        the returned :class:`SimulationStream` is consumed, in batches
        of ``batch_epochs``.  Collecting the full stream therefore
        reproduces :meth:`run` byte for byte under the same seed —
        batching changes *when* telemetry materializes, never its
        values.

        Parameters
        ----------
        n_epochs:
            Total simulation horizon.
        batch_epochs:
            Epochs per emitted batch (the last batch may be shorter).
        fault_events, fault_injector:
            As in :meth:`run` — one explicit schedule, one injector to
            draw from, or neither.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if batch_epochs < 1:
            raise ValueError(f"batch_epochs must be >= 1, got {batch_epochs}")
        if fault_events is not None and fault_injector is not None:
            raise ValueError("pass fault_events or fault_injector, not both")
        rng = check_random_state(self.random_state)
        (traffic_rng, bg_rng, telemetry_rng, sched_rng) = spawn_rngs(rng, 4)

        tb = self.testbed
        if fault_injector is not None:
            fault_events = fault_injector.schedule(n_epochs, tb.chain, sched_rng)
        events = list(fault_events) if fault_events else []

        trace = tb.traffic.generate(n_epochs, traffic_rng)
        bg_rngs = spawn_rngs(bg_rng, len(tb.background_chains))
        bg_traces = [
            model.generate(n_epochs, r)
            for model, r in zip(tb.background_traffic, bg_rngs)
        ]

        collector = TelemetryCollector(
            tb.chain, noise_sigma=self.measurement_noise, random_state=telemetry_rng
        )
        leak_mb = np.zeros(tb.chain.length)  # carried across batches
        base_propagation_ms = tb.chain.propagation_latency_us(tb.topology) / 1000.0

        def batches():
            for start in range(0, n_epochs, batch_epochs):
                epochs = np.arange(start, min(start + batch_epochs, n_epochs))
                yield self._run_batch(
                    epochs, trace, bg_traces, events, leak_mb,
                    base_propagation_ms, collector,
                )

        return SimulationStream(
            batches(),
            chain=tb.chain,
            events=events,
            feature_names=collector.feature_names,
            n_epochs=n_epochs,
            batch_epochs=batch_epochs,
        )

    # ------------------------------------------------------------------
    def _run_batch(
        self, epochs, trace, bg_traces, events, leak_mb, base_propagation_ms,
        collector,
    ) -> EpochBatch:
        """Simulate the consecutive ``epochs`` as arrays over epochs.

        Epochs depend on each other only through the leaked memory, so
        every quantity is an array with one entry per epoch; the chain
        walk stays sequential in VNFs (each VNF's arrivals are the
        previous VNF's served rate).  The arithmetic is the per-epoch
        scalar model's, operation for operation, so values do not
        depend on the batch size.
        """
        tb = self.testbed
        n = len(epochs)
        span = slice(epochs[0], epochs[-1] + 1)
        offered = trace.offered_kpps[span]
        kflows = trace.active_kflows[span]
        burstiness = trace.burstiness[span]
        # each fault overlapping the batch, with its per-epoch active mask
        active = [
            (e, (e.start_epoch <= epochs) & (epochs < e.end_epoch))
            for e in events
            if e.start_epoch <= epochs[-1] and epochs[0] < e.end_epoch
        ]

        # ---- apply chain-level faults, in schedule order ------------
        propagation_ms = np.full(n, base_propagation_ms)
        extra_chain_loss = np.zeros(n)
        for event, on in active:
            if event.kind is FaultKind.TRAFFIC_SURGE:
                offered = np.where(on, offered * (1.0 + 2.0 * event.severity), offered)
                kflows = np.where(on, kflows * (1.0 + 1.5 * event.severity), kflows)
            elif event.kind is FaultKind.LINK_DEGRADATION:
                propagation_ms = np.where(
                    on, propagation_ms * (1.0 + 3.0 * event.severity), propagation_ms
                )
                extra_chain_loss = np.where(
                    on, extra_chain_loss + 0.02 * event.severity, extra_chain_loss
                )

        # ---- CPU demand per server: chain, background, contention ---
        demand = {sid: np.zeros(n) for sid in tb.topology.servers}
        for inst in tb.chain.instances:
            demand[inst.server_id] += _cores_needed(inst, offered, kflows)
        for chain, bg_trace in zip(tb.background_chains, bg_traces):
            for inst in chain.instances:
                demand[inst.server_id] += _cores_needed(
                    inst, bg_trace.offered_kpps[span], bg_trace.active_kflows[span]
                )
        for event, on in active:
            if event.kind is FaultKind.CPU_CONTENTION:
                cores = tb.topology.server(event.server_id).cpu_cores
                demand[event.server_id] = np.where(
                    on, demand[event.server_id] + event.severity * cores,
                    demand[event.server_id],
                )

        # ---- walk the chain -----------------------------------------
        # per-element Python ** (libm pow), as in mm1k_loss_probability
        scv = self.service_scv * np.array([b**2 for b in burstiness.tolist()])
        arrival = offered
        total_queue_ms = np.zeros(n)
        total_proc_ms = 0.0
        columns = []
        for i, inst in enumerate(tb.chain.instances):
            server = tb.topology.server(inst.server_id)
            server_demand = demand[inst.server_id]
            with np.errstate(divide="ignore"):
                contention = np.where(
                    server_demand > 0,
                    np.minimum(1.0, server.cpu_cores / server_demand), 1.0,
                )
            config_factor = np.ones(n)
            for event, on in active:
                if event.vnf_index == i and event.kind is FaultKind.CONFIG_ERROR:
                    config_factor = np.where(
                        on, np.minimum(config_factor, 1.0 - 0.7 * event.severity),
                        config_factor,
                    )
            leak = _leak_levels(
                leak_mb[i],
                [(on, LEAK_RATE_PER_EPOCH * event.severity * inst.mem_mb)
                 for event, on in active
                 if event.vnf_index == i and event.kind is FaultKind.MEMORY_LEAK],
                n,
            )
            leak_mb[i] = leak[-1]

            capacity = inst.nominal_capacity_kpps(server.cpu_speed)
            capacity = capacity * contention * config_factor
            mem_used = (
                inst.profile.mem_base_mb + inst.profile.mem_per_kflow_mb * kflows + leak
            )
            mem_util = np.minimum(mem_used / inst.mem_mb, 1.05)
            swap_penalty = np.maximum(
                SWAP_FLOOR, 1.0 - 3.0 * (mem_util - SWAP_THRESHOLD)
            )
            capacity = np.where(
                mem_util > SWAP_THRESHOLD, capacity * swap_penalty, capacity
            )
            capacity = np.maximum(capacity, 1e-6)
            p_loss = mm1k_loss_probability(arrival, capacity, self.buffer_pkts)
            served = arrival * (1.0 - p_loss)
            utilization = np.minimum(arrival / capacity, 1.5)
            queue_ms = mg1_waiting_time(served, capacity, scv=scv) * self.batch_factor

            total_queue_ms += queue_ms
            total_proc_ms += inst.profile.base_latency_us / 1000.0
            # capacity already includes contention and fault penalties,
            # so utilization saturates past 1.0 when the VNF is starved
            # or overloaded
            columns += [
                np.minimum(utilization, 1.2),
                mem_util,
                queue_ms,
                p_loss,
                server_demand / server.cpu_cores,
            ]
            arrival = served

        delivered = arrival * (1.0 - extra_chain_loss)
        with np.errstate(divide="ignore", invalid="ignore"):
            loss_rate = np.where(offered > 0, 1.0 - delivered / offered, 0.0)
        latency_ms = total_queue_ms + total_proc_ms + propagation_ms

        columns += [offered, kflows, burstiness, propagation_ms]
        root_cause, culprits = self._ground_truth(active, n)
        return EpochBatch(
            start_epoch=int(epochs[0]),
            features=collector.measure(
                np.column_stack(columns), epochs, tb.traffic.period_epochs
            ),
            latency_ms=latency_ms,
            loss_rate=loss_rate,
            sla_violation=np.asarray(
                tb.chain.sla.is_violated(latency_ms, loss_rate), dtype=np.int64
            ),
            root_cause=root_cause,
            culprit_vnfs=culprits,
        )

    def _ground_truth(self, active, n) -> tuple[np.ndarray, list]:
        """Per-epoch root-cause labels and culprit VNF sets.

        With multiple simultaneous faults (possible only with a manual
        schedule) the earliest-starting one is labelled; ties go to the
        one listed first.
        """
        root_cause = np.full(n, NO_FAULT, dtype=object)
        culprits: list[tuple[int, ...]] = [()] * n
        labelled = np.zeros(n, dtype=bool)
        for event, on in sorted(active, key=lambda a: a[0].start_epoch):
            mine = on & ~labelled
            labelled |= on
            root_cause[mine] = event.kind.value
            if event.kind in CHAIN_LEVEL_FAULTS:
                continue
            if event.vnf_index is not None:
                culprit = (event.vnf_index,)
            else:
                culprit = tuple(
                    i
                    for i, inst in enumerate(self.testbed.chain.instances)
                    if inst.server_id == event.server_id
                )
            for j in np.flatnonzero(mine):
                culprits[j] = culprit
        return root_cause, culprits


def _cores_needed(inst: VNFInstance, offered_kpps, kflows):
    """Cores an instance needs to serve ``offered_kpps`` (uncapped)."""
    per_core = inst.profile.capacity_kpps_per_vcpu
    return np.minimum(
        offered_kpps / per_core + inst.profile.cpu_per_kflow * kflows,
        inst.vcpus,  # an instance cannot use more cores than allocated
    )


def _leak_levels(carried_mb: float, leaks: list, n: int) -> np.ndarray:
    """Leaked MB of one VNF at each of ``n`` epochs.

    ``leaks`` pairs each of its active-mask arrays with a per-epoch
    growth.  In every epoch where some leak is active, the growths of
    the active leaks are added one by one to the level; any other epoch
    reclaims the memory (level 0).  A run of leaking epochs starting the
    batch continues from ``carried_mb``.  Each run is one sequential
    ``np.add.accumulate``, so the sums round exactly like a per-epoch
    loop (adding an inactive leak's 0.0 changes nothing).
    """
    level = np.zeros(n)
    if not leaks:
        return level
    growth = np.column_stack([np.where(on, step, 0.0) for on, step in leaks])
    leaking = np.any([on for on, _ in leaks], axis=0)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], leaking, [0]))))
    for a, b in zip(edges[::2], edges[1::2]):
        carried = carried_mb if a == 0 else 0.0
        sums = np.add.accumulate(np.concatenate(([carried], growth[a:b].ravel())))
        level[a:b] = sums[len(leaks)::len(leaks)]
    return level


# ----------------------------------------------------------------------
# canonical testbed
# ----------------------------------------------------------------------
#: Default monitored chain: a realistic security-service chain.
DEFAULT_CHAIN_TYPES = ("firewall", "nat", "ids", "lb", "dpi")

#: Per-type default allocations (vcpus, mem_mb) sized so the chain runs
#: at 45–80% utilization at the default base load — close enough to the
#: knee that surges and faults push it over.
DEFAULT_ALLOCATIONS = {
    "firewall": (1.0, 1024.0),
    "nat": (1.0, 1024.0),
    "ids": (2.0, 2048.0),
    "lb": (1.0, 512.0),
    "dpi": (3.0, 3072.0),
    "wanopt": (2.0, 4096.0),
    "transcoder": (4.0, 2048.0),
    "cache": (1.0, 8192.0),
}


def build_testbed(
    *,
    chain_types=DEFAULT_CHAIN_TYPES,
    base_kpps: float = 400.0,
    sla: SLA | None = None,
    n_background: int = 2,
    topology: NfviTopology | None = None,
    random_state=None,
) -> Testbed:
    """Build the canonical placed testbed used across examples/benches.

    A leaf-spine fabric hosts one monitored security chain plus
    ``n_background`` smaller chains placed first-fit, so several VNFs
    share servers and contention is real.
    """
    rng = check_random_state(random_state)
    if topology is None:
        topology = NfviTopology.leaf_spine(
            n_spine=2, n_leaf=2, servers_per_leaf=2, cpu_cores=8.0, mem_mb=16384.0
        )
    sla = sla or SLA(max_latency_ms=3.0, max_loss_rate=0.01)

    def make_chain(chain_id: str, types, scale: float = 1.0):
        instances = []
        for i, vnf_type in enumerate(types):
            vcpus, mem = DEFAULT_ALLOCATIONS[vnf_type]
            instances.append(
                VNFInstance(
                    vnf_type,
                    vcpus=vcpus * scale,
                    mem_mb=mem * scale,
                    instance_id=f"{chain_id}-{i}-{vnf_type}",
                )
            )
        return ServiceFunctionChain(chain_id, instances, sla)

    # worst-fit spreads the monitored chain across servers so that
    # inter-VNF propagation (and link-degradation faults) matter; the
    # background chains then pack first-fit onto the busiest servers,
    # which creates genuine co-location with the monitored VNFs.
    chain = make_chain("monitored", chain_types)
    WorstFitPlacement().place(chain, topology)
    placement = FirstFitPlacement()

    background_chains = []
    background_traffic = []
    bg_type_sets = [
        ("firewall", "lb"),
        ("nat", "ids"),
        ("firewall", "nat", "lb"),
        ("ids", "lb"),
    ]
    for b in range(n_background):
        bg_chain = make_chain(f"bg{b}", bg_type_sets[b % len(bg_type_sets)], scale=0.5)
        placement.place(bg_chain, topology)
        background_chains.append(bg_chain)
        background_traffic.append(
            TrafficModel(
                base_kpps=base_kpps * 0.5,
                diurnal_amplitude=0.3,
                phase=float(rng.uniform(0, 2 * np.pi)),
                flash_crowd_rate=0.002,
            )
        )

    traffic = TrafficModel(base_kpps=base_kpps)
    return Testbed(
        topology=topology,
        chain=chain,
        traffic=traffic,
        background_chains=background_chains,
        background_traffic=background_traffic,
    )
