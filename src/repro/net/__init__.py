"""The fleet attestation service.

``repro.net`` scales the one-exchange-at-a-time protocol objects into a
service: an asyncio :class:`VerifierService` multiplexes concurrent RA
and PoX exchanges from any number of provers over a pluggable message
transport (in-process loopback or TCP, both with injectable
loss/latency/reorder via :class:`LinkConditions`), a
:class:`ProverEndpoint` wraps one simulated device, and a
:class:`Fleet` stands up N devices, enrolls them on a
:class:`~repro.cluster.shards.ShardedVerifierCluster` (one inline shard
unless the caller passes a bigger one) and drives sustained mixed
traffic with per-exchange deadlines, folded into one
:class:`FleetReport`.  :mod:`repro.net.remote` reuses the same
framing for the campaign engine's ``backend="remote"`` workers.  See
``README.md`` ("Fleet service & remote backend") for a worked example.
"""

from repro.net.transport import (
    ClosedTransportError,
    LinkConditions,
    LoopbackTransport,
    MessageTransport,
    StreamTransport,
    allow_frame_type,
    loopback_pair,
    open_tcp_listener,
    open_tcp_transport,
    read_frame,
    write_frame,
)
from repro.net.rpc import RetryPolicy, RpcChannel, RpcTimeout
from repro.net.service import DeviceEnrollment, VerifierService, provision_enrollment
from repro.net.prover import ExchangeResult, ProverEndpoint
from repro.net.fleet import Fleet, FleetReport
from repro.net.remote import run_remote_campaign, worker_loop

__all__ = [
    "ClosedTransportError",
    "DeviceEnrollment",
    "ExchangeResult",
    "allow_frame_type",
    "Fleet",
    "FleetReport",
    "LinkConditions",
    "LoopbackTransport",
    "MessageTransport",
    "ProverEndpoint",
    "RetryPolicy",
    "RpcChannel",
    "RpcTimeout",
    "StreamTransport",
    "VerifierService",
    "loopback_pair",
    "open_tcp_listener",
    "open_tcp_transport",
    "provision_enrollment",
    "read_frame",
    "run_remote_campaign",
    "worker_loop",
    "write_frame",
]
