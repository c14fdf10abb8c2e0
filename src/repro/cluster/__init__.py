"""Fleet control plane: sharding, membership, retries, backpressure.

The :mod:`repro.net` data plane proved one asyncio verifier can
multiplex a fleet of provers; this package is the layer that makes a
*deployment* out of it:

* :class:`~repro.cluster.registry.WorkerRegistry` -- join/leave
  membership with heartbeats and dead-peer eviction, shared by the
  remote campaign dispatcher and the verifier cluster;
* :class:`~repro.cluster.hashring.HashRing` +
  :class:`~repro.cluster.shards.ShardedVerifierCluster` -- N
  independent verifier services behind consistent hashing on device
  id, with enrollment shipping, rebalance and heartbeat eviction;
* :class:`~repro.net.rpc.RetryPolicy` (re-exported) -- bounded
  retransmission inside per-exchange deadlines, so impaired links
  degrade throughput instead of burning whole exchanges;
* :class:`~repro.cluster.metrics.ShardStats` +
  :class:`~repro.cluster.metrics.BackpressureGate` -- per-shard
  metrics (verdict mix, challenge-table occupancy, p50/p99 latency)
  and admission control when provers outrun verifiers.

:class:`~repro.net.fleet.Fleet` drives a simulated device fleet through
a cluster: ``Fleet(32, cluster=ShardedVerifierCluster(shards=2)).run()``
routes, supervises and reports per shard (without ``cluster=`` a fleet
runs against one inline shard).
"""

from repro.cluster.hashring import HashRing
from repro.cluster.metrics import BackpressureGate, ShardStats
from repro.cluster.registry import WorkerRecord, WorkerRegistry
from repro.cluster.shards import ShardedVerifierCluster, VerifierShard
from repro.net.rpc import RetryPolicy, RpcChannel, RpcTimeout

__all__ = [
    "BackpressureGate",
    "HashRing",
    "RetryPolicy",
    "RpcChannel",
    "RpcTimeout",
    "ShardStats",
    "ShardedVerifierCluster",
    "VerifierShard",
    "WorkerRecord",
    "WorkerRegistry",
]
