"""Integration tests for the sharded verifier cluster control plane.

The acceptance bars pinned here:

* a lossy fleet **with** retries completes every exchange
  (``all_accepted``), while the *same seeded run* without retries
  times exchanges out -- retransmission is what buys completeness;
* killing a shard mid-run is detected by the heartbeat monitor, the
  shard is evicted, its devices re-enroll on the survivor (in-flight
  exchanges complete there or fail closed) and the run still drains;
* the backpressure gate sheds or delays visibly, never silently;
* a fleet runs repeatedly, and each report counts its own run only;
* the shard count changes routing, never what a device executes;
* enrollment over the wire is refused unless the shard opted in.
"""

import asyncio

import pytest

from repro.cluster import RetryPolicy, ShardedVerifierCluster
from repro.net import Fleet, LinkConditions, VerifierService, loopback_pair

#: The pinned lossy link: 20% loss, deterministic seed.
LOSSY = LinkConditions(loss=0.2, seed=7)


def run(coroutine):
    return asyncio.run(coroutine)


class TestRetriesUnderLoss:
    def test_lossy_fleet_with_retries_completes_everything(self):
        # The satellite's acceptance pin: loss=0.2 plus a bounded retry
        # schedule => every exchange accepted, zero timeouts, and the
        # recovery is visible as a nonzero retransmit count.
        fleet = Fleet(4, architecture="asap", conditions=LOSSY,
                      retry=RetryPolicy(max_attempts=8, base_timeout=0.03))
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.exchanges == 8
        assert report.all_accepted(), \
            [r.reason for r in report.results if not r.accepted]
        assert report.timed_out == 0
        assert report.retransmits > 0

    def test_same_lossy_run_without_retries_times_out(self):
        # Identical fleet, identical seeded loss, no retry layer: the
        # only bound is the per-exchange deadline, and dropped frames
        # burn whole exchanges.
        fleet = Fleet(4, architecture="asap", conditions=LOSSY,
                      deadline=0.25)
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.exchanges == 8
        assert report.timed_out > 0
        assert not report.all_accepted()
        assert report.retransmits == 0

    def test_unbounded_loss_configuration_is_refused(self):
        with pytest.raises(ValueError, match="retry"):
            Fleet(2, conditions=LOSSY)  # no deadline, no retry
        with pytest.raises(ValueError, match="retry"):
            Fleet(2, conditions=LOSSY, retry=RetryPolicy(max_attempts=None),
                  cluster=ShardedVerifierCluster(shards=2))

    def test_cluster_fleet_with_retries_survives_loss(self):
        fleet = Fleet(4, architecture="asap", conditions=LOSSY,
                      retry=RetryPolicy(max_attempts=8, base_timeout=0.03),
                      cluster=ShardedVerifierCluster(shards=2))
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.all_accepted()
        assert report.retransmits > 0


class TestShardedCluster:
    def test_two_shard_fleet_routes_and_accepts(self):
        fleet = Fleet(8, architecture="asap",
                      cluster=ShardedVerifierCluster(shards=2))
        report = fleet.run(exchanges_per_device=2, mix=("ra", "pox"))
        assert report.exchanges == 16
        assert report.all_accepted()
        assert report.shard_count == 2
        # Both shards saw traffic (64 virtual nodes spread 8 devices).
        busy = [stats for stats in report.shards if stats.exchanges]
        assert len(busy) == 2
        assert sum(stats.exchanges for stats in report.shards) == 16
        # Challenge tables drained on every shard.
        assert all(stats.pending_challenges == 0 for stats in report.shards)
        # Latency percentiles were recorded for loaded shards.
        assert all(stats.p99_seconds >= stats.p50_seconds > 0
                   for stats in busy)

    def test_kill_shard_evicts_and_fails_over(self):
        # Kill one shard a quarter of the way in: the heartbeat monitor
        # must evict it, the ring must re-home its devices, and every
        # remaining exchange must complete on the survivor or fail
        # closed -- the run itself always drains.
        fleet = Fleet(8, architecture="asap", deadline=2.0,
                      cluster=ShardedVerifierCluster(shards=2, heartbeat=0.05))
        victim = "shard-0"
        report = fleet.run(exchanges_per_device=4, mix=("ra",),
                           kill_shard=victim)
        assert report.evictions == 1
        assert report.rebalanced_devices > 0
        assert report.shard_count == 1  # the survivor
        dead = report.shard(victim)
        assert dead is not None and not dead.alive
        survivor = report.shard("shard-1")
        assert survivor.alive and survivor.exchanges > 0
        # Nothing hung: every exchange reached a terminal outcome.
        assert (report.accepted + report.rejected + report.timed_out
                == report.exchanges)
        assert report.accepted > 0

    def test_monitor_evicts_silent_shard_without_traffic(self):
        async def body():
            cluster = ShardedVerifierCluster(shards=2, heartbeat=0.03)
            await cluster.start()
            try:
                await cluster.kill_shard("shard-1")
                deadline = asyncio.get_running_loop().time() + 2.0
                while ("shard-1" in cluster.ring
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.02)
                return (cluster.counters["evictions"],
                        list(cluster.ring.nodes))
            finally:
                await cluster.stop()

        evictions, nodes = run(body())
        assert evictions == 1
        assert nodes == ["shard-0"]

    def test_added_shard_takes_ownership(self):
        async def body():
            cluster = ShardedVerifierCluster(shards=1)
            await cluster.start()
            try:
                await cluster.add_shard("shard-late")
                keys = ["prover-%04d" % n for n in range(64)]
                return cluster.ring.placement(keys)
            finally:
                await cluster.stop()

        placement = run(body())
        assert set(placement.values()) == {"shard-0", "shard-late"}


class TestRepeatedRuns:
    def test_default_cluster_fleet_runs_twice(self):
        fleet = Fleet(3, architecture="asap")
        for _ in range(2):
            report = fleet.run(exchanges_per_device=2)
            assert report.exchanges == 6 and report.all_accepted()
            assert report.retransmits == 0
            assert report.service_counters["challenges"] == report.exchanges
            assert report.pending_challenges_after == 0

    def test_lossy_two_shard_fleet_runs_twice(self):
        # Reply windows far above a loopback round trip, so only the
        # seeded losses cause retransmits and both runs see the same.
        fleet = Fleet(4, architecture="asap", conditions=LOSSY,
                      retry=RetryPolicy(max_attempts=8, base_timeout=0.25),
                      cluster=ShardedVerifierCluster(shards=2))
        first = fleet.run(exchanges_per_device=2, mix=("ra",))
        second = fleet.run(exchanges_per_device=2, mix=("ra",))
        for report in (first, second):
            assert report.exchanges == 8 and report.all_accepted()
            assert report.shard_count == 2
            assert report.service_counters["challenges"] == report.exchanges
            assert report.service_counters["duplicates"] <= report.retransmits
            assert report.pending_challenges_after == 0
        assert second.retransmits == first.retransmits > 0


class TestShardCountInvariance:
    def test_devices_run_identically_on_one_or_two_shards(self):
        def drive(cluster):
            fleet = Fleet(6, architecture="asap", cluster=cluster)
            report = fleet.run(exchanges_per_device=4)
            devices = [bench.device for bench in fleet.benches]
            return report, devices

        one, one_devices = drive(None)
        two, two_devices = drive(ShardedVerifierCluster(shards=2))
        assert one.shard_count == 1 and two.shard_count == 2
        assert len([s for s in two.shards if s.exchanges]) == 2
        for report in (one, two):
            assert report.exchanges == 24 and report.all_accepted()
        # Results are per device in exchange order, so equal sequences
        # mean every device saw the same verdicts in the same order.
        assert ([(r.kind, r.accepted, r.timed_out) for r in one.results]
                == [(r.kind, r.accepted, r.timed_out) for r in two.results])
        assert ([device.step_number for device in one_devices]
                == [device.step_number for device in two_devices])
        assert ([device.trace.total_cycles for device in one_devices]
                == [device.trace.total_cycles for device in two_devices])


class TestBackpressure:
    def test_shed_mode_refuses_overload_visibly(self):
        fleet = Fleet(6, architecture="asap",
                      cluster=ShardedVerifierCluster(
                          shards=1, max_inflight=1, backpressure="shed"))
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        # Six concurrent devices against a one-slot gate: most attempts
        # shed, every admitted exchange accepted, and the shedding is
        # visible in both the report and the shard stats.
        assert report.shed > 0
        assert report.exchanges + report.shed == 12
        assert report.accepted == report.exchanges
        assert sum(stats.shed for stats in report.shards) == report.shed

    def test_delay_mode_completes_everything(self):
        fleet = Fleet(6, architecture="asap",
                      cluster=ShardedVerifierCluster(
                          shards=1, max_inflight=2, backpressure="delay"))
        report = fleet.run(exchanges_per_device=2, mix=("ra",))
        assert report.exchanges == 12
        assert report.all_accepted()
        assert report.shed == 0
        assert report.delayed > 0  # the queueing was visible


class TestEnrollmentGating:
    def test_wire_enrollment_refused_unless_opted_in(self):
        async def body():
            service = VerifierService()  # allow_enroll defaults False
            client, server_side = loopback_pair()
            serve = asyncio.ensure_future(service.serve(server_side))
            await client.send({"kind": "enroll", "seq": 0,
                               "enrollment": None})
            reply = await client.recv()
            await client.close()
            await serve
            return reply

        reply = run(body())
        assert reply["kind"] == "error"
        assert "enroll" in reply["reason"]
