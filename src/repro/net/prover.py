"""The prover-side endpoint of the fleet attestation service.

:class:`ProverEndpoint` wraps one simulated device (plus, for PoX, its
monitor and protocol object) and drives complete exchanges against a
:class:`~repro.net.service.VerifierService` over a
:class:`~repro.net.transport.MessageTransport`:

* plain RA: request a challenge, authenticate the request token with
  the device key, run SW-Att over the attested regions, send the
  report, await the verdict;
* PoX: request a challenge, install it in the metadata region, run the
  executable region on the simulated device, attest META/ER/OR (and
  the IVT for ASAP), send the report, await the verdict.

Every exchange can carry a **deadline**: the whole request-to-verdict
round trip runs under ``asyncio.wait_for``, and a timeout yields an
:class:`ExchangeResult` with ``timed_out=True`` instead of an
exception -- on a lossy or slow link that is an expected outcome, and
the verifier's TTL'd challenge table absorbs the abandoned challenge.

Exchanges can additionally carry a :class:`~repro.net.rpc.RetryPolicy`:
each request is then retransmitted with exponentially growing reply
windows *inside* the deadline, so one dropped frame costs one attempt
timeout instead of the whole exchange.  The service deduplicates
retransmits by ``seq``, so retried requests are executed at most once.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.net.rpc import RetryPolicy, RpcChannel
from repro.net.transport import MessageTransport
from repro.vrased.protocol import AttestationRequest
from repro.vrased.swatt import SwAtt


@dataclass
class ExchangeResult:
    """Outcome of one networked exchange, as seen by the prover."""

    kind: str
    accepted: bool = False
    reason: str = ""
    timed_out: bool = False
    #: Refused by a backpressure gate before any message was sent.
    shed: bool = False
    elapsed_seconds: float = 0.0
    #: Host time spent on device work: SW-Att for RA; installing the
    #: challenge, executing ER and attesting for PoX.  Timed at phase
    #: boundaries, never per step, and kept when the exchange times out.
    prover_seconds: float = 0.0

    def __bool__(self):
        return self.accepted


class ProverEndpoint:
    """One device's client to the verifier service."""

    def __init__(self, device_id, device, device_key,
                 transport: MessageTransport,
                 attested_regions: Optional[Sequence] = None,
                 protocol=None, retry: Optional[RetryPolicy] = None):
        """``attested_regions`` are what plain RA measures (default: the
        device's program memory); ``protocol`` is the device's
        :class:`~repro.apex.pox.PoxProtocol` (or the ASAP subclass) for
        PoX exchanges -- only its prover-side half is used, the
        verifier side lives behind the transport.  ``retry`` enables
        bounded retransmission of every request on this endpoint.
        """
        self.device_id = device_id
        self.device = device
        self.device_key = device_key
        self.transport = transport
        self.swatt = SwAtt(device_key, device_id=device_id)
        self.attested_regions = (
            list(attested_regions) if attested_regions is not None
            else [device.layout.program]
        )
        self.protocol = protocol
        #: One round trip at a time per endpoint (a device attests
        #: serially; fleet concurrency lives across endpoints).
        self.rpc = RpcChannel(transport, retry=retry)

    # ------------------------------------------------------------ rpc

    @property
    def retransmits(self) -> int:
        """Requests this endpoint has retransmitted so far."""
        return self.rpc.retransmits

    async def _rpc(self, message) -> dict:
        return await self.rpc.call(message)

    # ------------------------------------------------------------ exchanges

    async def run_attestation(self, deadline: Optional[float] = None) -> ExchangeResult:
        """One complete RA exchange; never raises on timeout."""
        result = ExchangeResult(kind="ra")
        return await self._with_deadline(
            result, self._attestation_flow(result), deadline)

    async def run_pox(self, deadline: Optional[float] = None,
                      max_steps: int = 20000) -> ExchangeResult:
        """One complete PoX exchange (APEX or ASAP per the protocol)."""
        if self.protocol is None:
            raise RuntimeError("this endpoint has no PoX protocol attached")
        result = ExchangeResult(kind=self.protocol.architecture)
        return await self._with_deadline(
            result, self._pox_flow(result, max_steps), deadline)

    async def stats(self) -> dict:
        """Fetch the service-side counters."""
        return await self._rpc({"kind": "stats"})

    async def close(self):
        await self.transport.close()

    # ------------------------------------------------------------ flows

    async def _with_deadline(self, result, flow, deadline) -> ExchangeResult:
        """Run *flow* under the deadline; fold its outcome into *result*
        (which the flow has been charging its device time to)."""
        started = time.perf_counter()
        try:
            if deadline is not None:
                outcome = await asyncio.wait_for(flow, timeout=deadline)
            else:
                outcome = await flow
        except asyncio.TimeoutError as error:
            # Either the outer deadline fired, or (with no deadline set)
            # a bounded retry schedule was exhausted and RpcTimeout --
            # an asyncio.TimeoutError subclass -- surfaced here.
            result.timed_out = True
            result.reason = ("deadline of %.3fs exceeded" % deadline
                             if deadline is not None
                             else (str(error) or "retry attempts exhausted"))
        else:
            result.accepted = outcome.accepted
            result.reason = outcome.reason
        result.elapsed_seconds = time.perf_counter() - started
        return result

    async def _request_challenge(self):
        """Shared step 1: obtain and authenticate a challenge."""
        reply = await self._rpc({"kind": "attest", "device_id": self.device_id})
        if reply["kind"] != "challenge":
            return None, ExchangeResult(kind="", reason=reply.get("reason", "service error"))
        request = AttestationRequest(challenge=reply["challenge"],
                                     auth_token=reply["auth_token"])
        if not request.verify_token(self.device_key):
            # A forged/garbled request never reaches SW-Att.
            return None, ExchangeResult(kind="", reason="request authentication failed")
        return request.challenge, None

    async def _submit(self, protocol_name, report) -> ExchangeResult:
        """Shared step 3/4: send the report, await the verdict."""
        reply = await self._rpc({"kind": "report", "protocol": protocol_name,
                                 "report": report})
        if reply["kind"] != "verdict":
            return ExchangeResult(kind="", reason=reply.get("reason", "service error"))
        return ExchangeResult(kind="", accepted=reply["accepted"],
                              reason=reply["reason"])

    async def _attestation_flow(self, result) -> ExchangeResult:
        challenge, failure = await self._request_challenge()
        if failure is not None:
            return failure
        started = time.perf_counter()
        report = self.swatt.measure(self.device.memory, challenge,
                                    self.attested_regions)
        result.prover_seconds += time.perf_counter() - started
        return await self._submit("ra", report)

    async def _pox_flow(self, result, max_steps) -> ExchangeResult:
        challenge, failure = await self._request_challenge()
        if failure is not None:
            return failure
        protocol = self.protocol
        started = time.perf_counter()
        protocol.install_challenge(challenge)
        # The simulated execution is synchronous CPU work; it yields no
        # awaits, so a fleet's executions serialise while its network
        # round trips interleave -- exactly one device's worth of
        # silicon per event loop.
        protocol.call_executable(max_steps=max_steps)
        report = protocol.attest()
        result.prover_seconds += time.perf_counter() - started
        return await self._submit(protocol.architecture, report)
