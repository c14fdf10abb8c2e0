"""The fleet attestation service: one async verifier, many provers.

:class:`VerifierService` owns a single :class:`~repro.vrased.protocol.Verifier`
(one key store, one bounded issued-challenge table) plus an APEX and an
ASAP PoX verifier layered over it, and serves attestation traffic over
any number of :class:`~repro.net.transport.MessageTransport`
connections concurrently: every incoming message is handled in its own
task, so thousands of provers can have exchanges in flight against one
verifier at once.  The wire protocol is three message kinds:

``attest``   ``{"kind": "attest", "seq": n, "device_id": id}``
             -> ``{"kind": "challenge", "seq": n, "challenge": ...,
             "auth_token": ...}`` (or an ``error`` reply for an
             unenrolled device).
``report``   ``{"kind": "report", "seq": n, "protocol": "ra" | "apex" |
             "asap", "report": AttestationReport}`` -> ``{"kind":
             "verdict", "seq": n, "accepted": bool, "reason": str}``.
``stats``    -> ``{"kind": "stats", ...}`` with the service counters
             and the current issued-challenge table size.
``ping``     -> ``{"kind": "pong", "seq": n}`` -- the liveness probe the
             cluster control plane's heartbeat monitor sends.
``enroll``   ``{"kind": "enroll", "enrollment": DeviceEnrollment}`` ->
             ``{"kind": "enrolled", "device_id": id}``.  Refused unless
             the service was built with ``allow_enroll=True``: remote
             enrollment hands out device keys, so only services that
             are themselves spawned by a trusted control plane (the
             cluster's shard servers) accept it.

``seq`` is an opaque correlation id echoed verbatim, so a client may
pipeline several requests over one connection (the bundled
:class:`~repro.net.prover.ProverEndpoint` keeps one round trip in
flight at a time and uses ``seq`` to shed stale replies from timed-out
exchanges).

Requests are served **at most once per ``seq``**: :meth:`serve` keeps a
bounded per-connection reply cache, so a retransmitted request (the
retry layer in :mod:`repro.net.rpc` re-sends the same frame when a
reply window closes) gets the *original* reply re-sent instead of being
executed again.  Without this, a retransmitted ``attest`` would issue a
second challenge and a retransmitted ``report`` would hit "unknown or
stale challenge" -- the challenge having been consumed by the verdict
whose reply was lost -- so the dedup cache is what makes "challenge
consumed exactly once" hold on lossy links.

The service is only viable on the *fixed* verifier semantics: because a
challenge is consumed on every terminal verdict and expired entries are
pruned, sustained mixed traffic -- including rejected and abandoned
exchanges -- leaves the challenge table empty, not monotonically
growing (``benchmarks/test_bench_fleet.py`` pins exactly that).
"""

from __future__ import annotations

import asyncio
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.apex.pox import PoxVerifier
from repro.core.pox import AsapPoxVerifier
from repro.net.transport import ClosedTransportError, MessageTransport, open_tcp_listener
from repro.obs.metrics import register_global_collector
from repro.vrased.protocol import Verifier


#: Protocol names a ``report`` message may carry.
REPORT_PROTOCOLS = ("ra", "apex", "asap")

#: Completed replies remembered per connection for retransmit dedup.
REPLY_CACHE_SIZE = 256


@dataclass(frozen=True)
class DeviceEnrollment:
    """Everything a verifier shard needs to serve one device.

    Key derivation is per-device (``KeyStore.provision`` accepts an
    explicit master key), so shards share **no** state: the cluster
    keeps a directory of these records and (re-)enrolls a device on
    whichever shard the hash ring assigns it to -- at startup, after a
    rebalance, or when an eviction moves its devices to survivors.
    Plain picklable data; registered with the restricted unpickler so
    it can cross the framed transport to a process-placement shard.
    """

    device_id: str
    master_key: bytes
    #: "asap" or "apex"; decides which PoX verifier learns the deployment.
    architecture: str
    #: ``(region, expected bytes)`` pairs plain RA measures.
    ra_reference: Tuple = ()
    #: PoX deployment geometry (``None`` for an RA-only device).
    pox_config: Optional[object] = None
    er_bytes: bytes = b""
    #: ASAP only: ``(index, address)`` pairs of authorized ISR entries.
    expected_isr_entries: Tuple = ()
    ivt_region: Optional[object] = None


def provision_enrollment(bench) -> DeviceEnrollment:
    """Extract a shippable :class:`DeviceEnrollment` from a testbench.

    The bench was provisioned against a *local* throwaway verifier;
    this lifts out exactly the verifier-side state (master key, RA
    reference image, PoX deployment) so any shard can re-create it.
    """
    device = bench.device
    protocol = bench.protocol
    config = protocol.config
    architecture = protocol.architecture
    isr_entries = ()
    if architecture == "asap":
        isr_entries = tuple(sorted(config.executable.isr_entries.items()))
    return DeviceEnrollment(
        device_id=bench.config.device_id,
        master_key=protocol.device_key.master_key,
        architecture=architecture,
        ra_reference=(
            (device.layout.program,
             device.memory.dump_region(device.layout.program)),
        ),
        pox_config=config,
        er_bytes=device.memory.dump_region(config.executable.region),
        expected_isr_entries=isr_entries,
        ivt_region=getattr(protocol, "ivt_region", None),
    )


class VerifierService:
    """Serves RA and PoX exchanges for a fleet of provers."""

    #: Live instances, for the ``service.*`` telemetry collector: the
    #: per-message handler only bumps the plain ``counters`` dict; sums
    #: over the live services materialise at registry snapshot time.
    _live = weakref.WeakSet()

    def __init__(self, verifier: Optional[Verifier] = None,
                 allow_enroll: bool = False,
                 reply_cache_size: int = REPLY_CACHE_SIZE):
        self.verifier = verifier or Verifier()
        #: Both PoX verifiers share ``self.verifier`` -- one key store,
        #: one challenge table -- so RA and PoX traffic interleave
        #: against the same bounded state.
        self.apex = PoxVerifier(self.verifier)
        self.asap = AsapPoxVerifier(self.verifier)
        #: Whether ``enroll`` messages are honoured (shard servers only).
        self.allow_enroll = allow_enroll
        self.reply_cache_size = reply_cache_size
        #: Service counters: challenges issued, verdicts by outcome,
        #: enrollments applied, and retransmitted requests deduplicated.
        self.counters: Dict[str, int] = {
            "challenges": 0, "accepted": 0, "rejected": 0, "errors": 0,
            "enrollments": 0, "duplicates": 0,
        }
        VerifierService._live.add(self)

    # ------------------------------------------------------------ queries

    @property
    def pending_challenges(self) -> int:
        """Size of the issued-challenge table right now."""
        return self.verifier.issued_count()

    # ------------------------------------------------------------ enrollment

    def apply_enrollment(self, enrollment: DeviceEnrollment):
        """Provision one device into this service's verifier state.

        Called directly by an in-process cluster, or via the ``enroll``
        message on shard servers.  Idempotent: re-enrolling (after a
        rebalance moves a device back) just overwrites the same
        deterministic per-device state.
        """
        self.verifier.key_store.provision(enrollment.device_id,
                                          enrollment.master_key)
        if enrollment.ra_reference:
            self.verifier.set_reference(enrollment.device_id,
                                        enrollment.ra_reference)
        if enrollment.pox_config is not None:
            if enrollment.architecture == "asap":
                self.asap.register_asap_deployment(
                    enrollment.device_id, enrollment.pox_config,
                    enrollment.er_bytes,
                    dict(enrollment.expected_isr_entries),
                    ivt_region=enrollment.ivt_region,
                )
            else:
                self.apex.register_deployment(
                    enrollment.device_id, enrollment.pox_config,
                    enrollment.er_bytes,
                )
        self.counters["enrollments"] += 1

    # ------------------------------------------------------------ handlers

    def handle(self, message) -> dict:
        """Process one request message; return the reply.

        Pure verifier-side computation (no awaits): the concurrency
        lives in :meth:`serve`, which runs one ``handle`` per incoming
        message in its own task.
        """
        seq = message.get("seq")
        kind = message.get("kind")
        try:
            if kind == "attest":
                request = self.verifier.create_request(message["device_id"])
                self.counters["challenges"] += 1
                return {
                    "kind": "challenge", "seq": seq,
                    "challenge": request.challenge,
                    "auth_token": request.auth_token,
                }
            if kind == "report":
                protocol = message.get("protocol", "ra")
                if protocol not in REPORT_PROTOCOLS:
                    raise ValueError("unknown report protocol %r" % protocol)
                report = message["report"]
                if protocol == "ra":
                    result = self.verifier.verify(report)
                elif protocol == "apex":
                    result = self.apex.verify(report)
                else:
                    result = self.asap.verify(report)
                outcome = "accepted" if result.accepted else "rejected"
                self.counters[outcome] += 1
                return {
                    "kind": "verdict", "seq": seq,
                    "accepted": result.accepted, "reason": result.reason,
                }
            if kind == "stats":
                return {
                    "kind": "stats", "seq": seq,
                    "pending_challenges": self.pending_challenges,
                    **self.counters,
                }
            if kind == "ping":
                return {"kind": "pong", "seq": seq}
            if kind == "enroll":
                if not self.allow_enroll:
                    raise PermissionError(
                        "enrollment is not enabled on this service")
                enrollment = message["enrollment"]
                self.apply_enrollment(enrollment)
                return {"kind": "enrolled", "seq": seq,
                        "device_id": enrollment.device_id}
            raise ValueError("unknown message kind %r" % kind)
        except Exception as error:  # noqa: BLE001 - folded into the reply
            # One malformed request must not take down the service (or
            # leak a traceback to the prover beyond its message).
            self.counters["errors"] += 1
            return {"kind": "error", "seq": seq, "reason": str(error)}

    # ------------------------------------------------------------ serving

    async def serve(self, transport: MessageTransport):
        """Serve one prover connection until it closes.

        Each message is dispatched to its own task, so a connection
        that pipelines requests gets concurrent verification, and slow
        exchanges on one connection never stall another.

        Retransmits are served at most once per ``seq``: a duplicate of
        a request still executing is dropped (its eventual reply covers
        both copies), and a duplicate of a completed request gets the
        cached original reply re-sent -- never a second execution, so a
        retried ``report`` cannot burn two challenges or flip a verdict.
        """
        pending = set()
        inflight = set()
        replies = OrderedDict()
        try:
            while True:
                try:
                    message = await transport.recv()
                except ClosedTransportError:
                    break
                seq = message.get("seq")
                if seq is not None:
                    if seq in replies:
                        self.counters["duplicates"] += 1
                        task = asyncio.ensure_future(
                            self._send_reply(transport, replies[seq]))
                        pending.add(task)
                        task.add_done_callback(pending.discard)
                        continue
                    if seq in inflight:
                        self.counters["duplicates"] += 1
                        continue
                    inflight.add(seq)
                task = asyncio.ensure_future(
                    self._respond(transport, message, inflight, replies))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def _respond(self, transport, message, inflight=None, replies=None):
        reply = self.handle(message)
        seq = message.get("seq")
        if seq is not None:
            if replies is not None:
                replies[seq] = reply
                while len(replies) > self.reply_cache_size:
                    replies.popitem(last=False)
            if inflight is not None:
                inflight.discard(seq)
        await self._send_reply(transport, reply)

    async def _send_reply(self, transport, reply):
        try:
            await transport.send(reply)
        except ClosedTransportError:
            # The prover went away mid-exchange; its challenge (if any)
            # ages out of the bounded table via the TTL.
            pass

    async def listen_tcp(self, host="127.0.0.1", port=0):
        """Serve over TCP; returns the ``asyncio.Server``."""
        return await open_tcp_listener(self.serve, host=host, port=port)


@register_global_collector
def _collect_service_metrics(registry):
    """Publish sums over the live services as ``service.*`` gauges.

    ``service.challenges``, ``service.accepted``, ... mirror the
    ``counters`` dict; ``service.pending_challenges`` is the combined
    issued-challenge table occupancy, the signal the backpressure /
    future autoscaling hooks watch.
    """
    totals: Dict[str, int] = {}
    instances = 0
    pending = 0
    for service in list(VerifierService._live):
        instances += 1
        pending += service.pending_challenges
        for key, value in service.counters.items():
            totals[key] = totals.get(key, 0) + value
    registry.gauge("service.instances").set(instances)
    registry.gauge("service.pending_challenges").set(pending)
    for key, value in totals.items():
        registry.gauge("service." + key).set(value)
