"""Per-shard fleet metrics and the backpressure gate.

:class:`ShardStats` is one shard's slice of a fleet run: exchange
counts and verdict mix, challenge-table occupancy, the shard service's
own counters and p50/p99 exchange latency.  A
:class:`~repro.net.fleet.FleetReport` carries one per shard and sums
over them.  Latency itself is sampled by each shard's
:class:`repro.obs.metrics.Histogram`, and :meth:`ShardStats.publish`
projects the slice into the metrics registry under ``fleet.<shard>.*``
names, so a registry snapshot taken after a run carries the same
numbers the report object does.

:class:`BackpressureGate` is the admission control half: when provers
outrun a shard's verifier, new exchanges either wait their turn
(``"delay"``) or are refused outright (``"shed"``), and either way the
pressure is *visible* in the report instead of silently stretching
latencies until deadlines start failing exchanges at random.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.metrics import get_registry

#: Admission-control behaviours when a shard is at max_inflight.
BACKPRESSURE_MODES = ("delay", "shed")


@dataclass
class ShardStats:
    """One shard's slice of a fleet run."""

    shard: str
    exchanges: int = 0
    accepted: int = 0
    rejected: int = 0
    timed_out: int = 0
    shed: int = 0
    #: Challenge-table occupancy when the stats were taken.
    pending_challenges: int = 0
    #: The shard service's own counters (challenges, verdicts, dedup...).
    service_counters: Dict[str, int] = field(default_factory=dict)
    p50_seconds: float = 0.0
    p99_seconds: float = 0.0
    #: False once the shard was evicted or killed.
    alive: bool = True

    def publish(self, registry=None):
        """Project this shard's slice into ``fleet.<shard>.*`` gauges."""
        registry = registry if registry is not None else get_registry()
        prefix = "fleet.%s." % self.shard
        registry.gauge(prefix + "exchanges").set(self.exchanges)
        registry.gauge(prefix + "accepted").set(self.accepted)
        registry.gauge(prefix + "rejected").set(self.rejected)
        registry.gauge(prefix + "timed_out").set(self.timed_out)
        registry.gauge(prefix + "shed").set(self.shed)
        registry.gauge(prefix + "pending_challenges").set(
            self.pending_challenges)
        registry.gauge(prefix + "p50_seconds").set(self.p50_seconds)
        registry.gauge(prefix + "p99_seconds").set(self.p99_seconds)
        registry.gauge(prefix + "alive").set(int(self.alive))


class BackpressureGate:
    """Bounds exchanges in flight against one shard.

    ``max_inflight=None`` admits everything (the gate still counts
    nothing, costs nothing).  Otherwise ``acquire`` either waits for a
    slot (``"delay"``, counting the waits) or returns ``False``
    immediately when the shard is saturated (``"shed"``, counting the
    refusals); callers must ``release`` after an admitted exchange.
    """

    def __init__(self, max_inflight: Optional[int] = None,
                 mode: str = "delay"):
        if mode not in BACKPRESSURE_MODES:
            raise ValueError("mode must be one of %s, got %r"
                             % (", ".join(BACKPRESSURE_MODES), mode))
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 or None, got %r"
                             % (max_inflight,))
        self.max_inflight = max_inflight
        self.mode = mode
        self.delayed = 0
        self.shed = 0
        self.inflight = 0
        self._semaphore = (asyncio.Semaphore(max_inflight)
                          if max_inflight is not None else None)

    async def acquire(self) -> bool:
        """Admit one exchange; ``False`` means it was shed."""
        if self._semaphore is None:
            self.inflight += 1
            return True
        if self._semaphore.locked():
            if self.mode == "shed":
                self.shed += 1
                return False
            self.delayed += 1
        await self._semaphore.acquire()
        self.inflight += 1
        return True

    def release(self):
        self.inflight -= 1
        if self._semaphore is not None:
            self._semaphore.release()
