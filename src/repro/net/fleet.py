"""Fleet harness: N simulated devices routed across verifier shards.

:class:`Fleet` builds *size* simulated devices -- each a full
:class:`~repro.firmware.testbench.PoxTestbench` device with its own
monitor -- and enrolls every one, via a shippable
:class:`~repro.net.service.DeviceEnrollment`, on the shard a
:class:`~repro.cluster.shards.ShardedVerifierCluster`'s hash ring
assigns it.  It then connects a
:class:`~repro.net.prover.ProverEndpoint` per device to that shard and
drives sustained mixed RA/PoX traffic with per-exchange deadlines,
every exchange admitted through the shard's backpressure gate.

The default cluster is one inline shard over in-process loopback
links: ``Fleet(32).run()`` is the "thousands of provers, one verifier"
shape of the paper's deployment story scaled to a unit test.  Callers
that want more shards, process placement, heartbeats or backpressure
build the cluster themselves and pass it in.  Device-to-shard routing
is re-resolved whenever membership changes, so a fleet survives a
mid-run shard kill: the heartbeat monitor evicts the dead shard, its
devices re-enroll on the survivors, interrupted exchanges fail closed
(single-use challenges died with the shard's table), and subsequent
traffic completes on the new owners.

Every run starts the cluster and stops it again, so a fleet can run
repeatedly and each :class:`FleetReport` counts its own run only.
``benchmarks/test_bench_fleet.py`` sweeps the fleet size and the shard
count and records exchanges/sec into ``BENCH_fleet.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.firmware.blinker import blinker_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.net.prover import ExchangeResult, ProverEndpoint
from repro.net.rpc import RetryPolicy
from repro.net.service import provision_enrollment
from repro.net.transport import ClosedTransportError, LinkConditions
from repro.obs.metrics import get_registry

if TYPE_CHECKING:
    from repro.cluster.metrics import ShardStats
    from repro.cluster.shards import ShardedVerifierCluster

#: Default exchange mix: alternate plain RA with proofs of execution.
DEFAULT_MIX = ("ra", "pox")


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet traffic run."""

    fleet_size: int
    #: Shards on the ring when the traffic drained.
    shard_count: int
    #: Admitted exchanges (shed ones are counted in ``shed`` only).
    exchanges: int = 0
    accepted: int = 0
    rejected: int = 0
    timed_out: int = 0
    #: Exchanges refused by a backpressure gate (mode "shed").
    shed: int = 0
    #: Exchanges that waited at a gate (mode "delay").
    delayed: int = 0
    #: Requests retransmitted by the retry layer across all provers.
    retransmits: int = 0
    evictions: int = 0
    #: Devices re-enrolled because ring ownership moved.
    rebalanced_devices: int = 0
    elapsed_seconds: float = 0.0
    #: Exchange counts per kind ("ra", "apex", "asap").
    per_kind: Dict[str, int] = field(default_factory=dict)
    #: One slice per shard the run started (evicted ones included).
    shards: List[ShardStats] = field(default_factory=list)
    #: Every admitted exchange, device by device in exchange order.
    results: List[ExchangeResult] = field(default_factory=list)

    @property
    def exchanges_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.exchanges / self.elapsed_seconds

    @property
    def pending_challenges_after(self) -> int:
        """Issued-challenge table sizes, summed over the shards."""
        return sum(stats.pending_challenges for stats in self.shards)

    @property
    def service_counters(self) -> Dict[str, int]:
        """The shard services' own counters, summed, for cross-checking."""
        totals: Dict[str, int] = {}
        for stats in self.shards:
            for key, value in stats.service_counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def prover_seconds(self) -> float:
        """Host time the provers spent on device work (install, execute,
        attest, measure), summed over every exchange."""
        return sum(result.prover_seconds for result in self.results)

    def all_accepted(self) -> bool:
        """Every admitted exchange completed and was accepted."""
        return self.exchanges > 0 and self.accepted == self.exchanges

    def shard(self, name: str) -> Optional[ShardStats]:
        for stats in self.shards:
            if stats.shard == name:
                return stats
        return None

    def publish(self, registry=None):
        """Project the report into ``fleet.*`` registry gauges.

        Aggregates are gauges (a report is a point-in-time fold of one
        run, not a monotonic stream); per-shard slices publish as
        ``fleet.<shard>.*`` through
        :meth:`~repro.cluster.metrics.ShardStats.publish`.  Called by
        :meth:`Fleet.run_async`, so a registry snapshot after a fleet
        run always carries the run's numbers.
        """
        registry = registry if registry is not None else get_registry()
        for name in ("shard_count", "exchanges", "accepted", "rejected",
                     "timed_out", "shed", "delayed", "retransmits",
                     "evictions", "rebalanced_devices", "elapsed_seconds",
                     "pending_challenges_after", "prover_seconds"):
            registry.gauge("fleet." + name).set(getattr(self, name))
        registry.gauge("fleet.size").set(self.fleet_size)
        for kind, count in self.per_kind.items():
            registry.gauge("fleet.per_kind.%s" % kind).set(count)
        for stats in self.shards:
            stats.publish(registry)


def _count(tally, result: ExchangeResult):
    """Fold one admitted exchange into a report or a shard's slice."""
    tally.exchanges += 1
    if result.timed_out:
        tally.timed_out += 1
    elif result.accepted:
        tally.accepted += 1
    else:
        tally.rejected += 1


class Fleet:
    """Builds and drives a fleet of provers against a verifier cluster."""

    def __init__(self, size: int, architecture: str = "asap",
                 firmware=None,
                 conditions: Optional[LinkConditions] = None,
                 deadline: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 cluster: Optional[ShardedVerifierCluster] = None):
        if size < 1:
            raise ValueError("fleet size must be >= 1, got %r" % (size,))
        if (conditions is not None and (conditions.loss or conditions.reorder)
                and deadline is None
                and (retry is None or not retry.bounded)):
            # A dropped (or indefinitely held) message would leave that
            # prover awaiting a reply forever.  Either bound: a
            # per-exchange deadline turns loss into a clean timeout, a
            # bounded retry schedule exhausts into one -- but with
            # neither (or an unlimited retry schedule and no deadline)
            # a run could hang, so refuse the configuration up front.
            raise ValueError(
                "lossy/reordering link conditions require a per-exchange "
                "deadline or a bounded retry policy (got conditions=%r "
                "with deadline=None, retry=%r)" % (conditions, retry))
        if cluster is None:
            # Imported here: repro.cluster imports repro.net.
            from repro.cluster.shards import ShardedVerifierCluster

            cluster = ShardedVerifierCluster(shards=1)
        self.size = size
        self.architecture = architecture
        self.firmware = firmware
        self.conditions = conditions
        self.deadline = deadline
        self.retry = retry
        self.cluster = cluster
        self.benches: List[PoxTestbench] = []
        self._enrollments = []

    # ------------------------------------------------------------ setup

    def _build_benches(self):
        """One testbench per device, plus the enrollment a shard needs.

        Each bench provisions a private verifier; provision_enrollment()
        lifts the verifier-side state (key, RA reference, PoX
        deployment) out of it for whichever shard owns the device.
        """
        if self.benches:
            return
        firmware = self.firmware if self.firmware is not None else \
            blinker_firmware(authorized=True)
        for index in range(self.size):
            config = TestbenchConfig(architecture=self.architecture,
                                     device_id="prover-%04d" % index)
            bench = PoxTestbench(firmware, config)
            self.benches.append(bench)
            self._enrollments.append(provision_enrollment(bench))

    def _link_conditions(self, index):
        """Per-prover impairments: same parameters, independent draws.

        Every link gets its own seed; correlated randomness would make
        one unlucky loss pattern strike the whole fleet in lockstep.
        """
        if self.conditions is None:
            return None
        return dataclasses.replace(self.conditions,
                                   seed=self.conditions.seed + 1000 * index)

    # ------------------------------------------------------------ traffic

    def run(self, exchanges_per_device: int = 4, mix=DEFAULT_MIX,
            max_steps: int = 20000, kill_shard: Optional[str] = None,
            kill_after_exchanges: Optional[int] = None) -> FleetReport:
        """Drive ``exchanges_per_device`` exchanges per prover.

        ``mix`` cycles per prover (``("ra",)`` for attestation-only
        traffic, ``("ra", "pox")`` for the default alternation).
        ``kill_shard`` names a shard to crash mid-run, once
        ``kill_after_exchanges`` exchanges have completed (default: a
        quarter of the total) -- the degradation path the heartbeat
        monitor then has to absorb.  Synchronous wrapper around one
        fresh event loop.
        """
        return asyncio.run(self.run_async(
            exchanges_per_device, mix, max_steps,
            kill_shard=kill_shard, kill_after_exchanges=kill_after_exchanges))

    async def run_async(self, exchanges_per_device: int = 4, mix=DEFAULT_MIX,
                        max_steps: int = 20000,
                        kill_shard: Optional[str] = None,
                        kill_after_exchanges: Optional[int] = None,
                        ) -> FleetReport:
        for kind in mix:
            if kind not in ("ra", "pox"):
                raise ValueError("unknown exchange kind %r in mix" % (kind,))
        self._build_benches()
        run = _Run(self, exchanges_per_device, mix, max_steps)
        killer = None
        try:
            await self.cluster.start()
            for enrollment in self._enrollments:
                await self.cluster.enroll_device(enrollment)
            if kill_shard is not None:
                if kill_after_exchanges is None:
                    kill_after_exchanges = max(
                        1, self.size * exchanges_per_device // 4)
                killer = asyncio.ensure_future(
                    run.kill_when(kill_shard, kill_after_exchanges))
            started = time.perf_counter()
            outcomes = await asyncio.gather(*[
                run.drive(index, bench)
                for index, bench in enumerate(self.benches)
            ])
            elapsed = time.perf_counter() - started
            # Folded before teardown: shard stats and liveness must
            # reflect the run, not the shutdown.
            report = await run.fold(outcomes, elapsed)
        finally:
            if killer is not None:
                killer.cancel()
                await asyncio.gather(killer, return_exceptions=True)
            for _, endpoint in run.endpoints.values():
                await endpoint.close()
            await self.cluster.stop()
        report.publish()
        return report


class _Run:
    """The state of one traffic run: its endpoints and its progress."""

    def __init__(self, fleet: Fleet, count, mix, max_steps):
        self.fleet = fleet
        self.cluster = fleet.cluster
        self.count = count
        self.mix = mix
        self.max_steps = max_steps
        #: device_id -> (shard, endpoint) currently serving that device.
        self.endpoints = {}
        #: Every endpoint the run opened (failover replaces some).
        self.opened: List[ProverEndpoint] = []
        self.completed = 0
        self.progress = asyncio.Event()

    async def endpoint_for(self, index, bench):
        """The device's endpoint on its *current* shard.

        Re-resolves after membership changes: a cached endpoint bound
        to an evicted (or killed) shard is dropped and a fresh
        connection is opened to the new ring owner.
        """
        device_id = bench.config.device_id
        shard = self.cluster.shard_for(device_id)
        if not shard.alive:
            shard = await self.await_failover(device_id, shard)
        cached = self.endpoints.get(device_id)
        if cached is not None:
            old_shard, endpoint = cached
            if old_shard is shard and shard.alive:
                return endpoint, shard
            await endpoint.close()
            del self.endpoints[device_id]
        transport = await shard.connect(self.fleet._link_conditions(index))
        endpoint = ProverEndpoint(
            device_id, bench.device, bench.protocol.device_key,
            transport, protocol=bench.protocol, retry=self.fleet.retry,
        )
        self.endpoints[device_id] = (shard, endpoint)
        self.opened.append(endpoint)
        return endpoint, shard

    async def await_failover(self, device_id, shard):
        """Wait (briefly) for the monitor to evict a dead owner.

        A device whose shard just died would otherwise burn its whole
        remaining exchange budget on instant fail-closed errors in the
        window before the heartbeat timeout fires; real clients wait
        out the failover instead.  Bounded by a grace period of a few
        heartbeat timeouts -- if membership never changes (no monitor
        running, or the whole cluster is down) the dead shard comes
        back to the caller, which fails the exchange closed.
        """
        timeout = self.cluster.heartbeat_timeout
        if timeout is None:
            return shard
        loop = asyncio.get_running_loop()
        give_up = loop.time() + 4 * timeout
        while not shard.alive and loop.time() < give_up:
            await asyncio.sleep(min(timeout / 4, 0.05))
            shard = self.cluster.shard_for(device_id)
        return shard

    async def kill_when(self, name: str, threshold: int):
        # Event-driven, not polled: a small fleet of fast RA exchanges
        # can drain in single-digit milliseconds, and a sleep-loop
        # killer would fire only after the traffic it was meant to
        # disrupt is gone.
        while self.completed < threshold:
            self.progress.clear()
            await self.progress.wait()
        await self.cluster.kill_shard(name)

    def note_progress(self):
        self.completed += 1
        self.progress.set()

    async def drive(self, index, bench):
        """One prover's exchanges; ``(shard name, result)`` per exchange."""
        deadline = self.fleet.deadline
        results = []
        for n in range(self.count):
            kind = self.mix[n % len(self.mix)]
            try:
                endpoint, shard = await self.endpoint_for(index, bench)
            except (RuntimeError, ClosedTransportError) as error:
                # No live owner right now (mid-eviction window): the
                # exchange fails closed rather than blocking the fleet.
                results.append((None, ExchangeResult(
                    kind=kind, reason="no shard available: %s" % error)))
                self.note_progress()
                continue
            if not await shard.gate.acquire():
                results.append((shard.name, ExchangeResult(
                    kind=kind, shed=True,
                    reason="shed by backpressure gate")))
                self.note_progress()
                continue
            try:
                if kind == "ra":
                    result = await endpoint.run_attestation(deadline=deadline)
                else:
                    result = await endpoint.run_pox(deadline=deadline,
                                                    max_steps=self.max_steps)
            except ClosedTransportError as error:
                # The shard died under this exchange; next iteration
                # re-resolves to a survivor.
                result = ExchangeResult(kind=kind, timed_out=True,
                                        reason="shard connection lost: %s" % error)
            finally:
                shard.gate.release()
            shard.latency.record(result.elapsed_seconds)
            results.append((shard.name, result))
            self.note_progress()
        return results

    async def fold(self, outcomes, elapsed) -> FleetReport:
        cluster = self.cluster
        report = FleetReport(
            fleet_size=self.fleet.size,
            shard_count=len(cluster.ring),
            elapsed_seconds=elapsed,
            retransmits=sum(endpoint.retransmits for endpoint in self.opened),
            evictions=cluster.counters["evictions"],
            rebalanced_devices=cluster.counters["rebalanced_devices"],
            delayed=sum(shard.gate.delayed
                        for shard in cluster.shards.values()),
            shards=await cluster.shard_stats(),
        )
        by_shard = {stats.shard: stats for stats in report.shards}
        for shard_name, result in (item for per_device in outcomes
                                   for item in per_device):
            if result.shed:
                # The shard's own slice reads its gate's shed counter.
                report.shed += 1
                continue
            report.results.append(result)
            report.per_kind[result.kind] = report.per_kind.get(result.kind, 0) + 1
            _count(report, result)
            if shard_name in by_shard:
                _count(by_shard[shard_name], result)
        return report
