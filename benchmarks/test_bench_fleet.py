"""Fleet attestation service throughput: exchanges/sec vs fleet size.

Drives sustained mixed RA/PoX traffic from fleets of simulated
provers through :class:`~repro.net.Fleet`'s default one-shard inline
cluster over the in-process loopback transport, then sweeps the
sharded cluster control plane (1-shard vs 2-shard
:class:`~repro.cluster.ShardedVerifierCluster`, shards in separate
processes serving TCP on the loopback interface).  Records aggregate
exchanges/sec per row into ``BENCH_fleet.json`` alongside the other
bench artifacts; every row carries a ``label`` so
``compare_bench.py --profile fleet`` can gate the scaling trajectory
against ``BENCH_fleet.baseline.json`` (normalized to ``loopback-1``),
and a ``prover_busy_share`` -- the share of the run's wall time the
provers spent on device work (``FleetReport.prover_seconds``) -- so a
row says where its time went.

The correctness bar baked into the bench (and the reason the fixed
verifier is load-bearing): after a 32-device sweep of concurrent
exchanges through one service, **every** exchange completed and the
issued-challenge table is empty -- zero growth, even though the sweep
included thousands of challenge issuances.

Run with ``pytest benchmarks/test_bench_fleet.py --benchmark-only -s``.
Set ``REPRO_SOAK=1`` to also run the 1000-device cluster soak (minutes;
excluded from tier-1 and CI).
"""

from __future__ import annotations

import os

from repro.cluster import ShardedVerifierCluster
from repro.net import Fleet, LinkConditions

#: Fleet sizes swept over the loopback transport.
FLEET_SIZES = (1, 4, 16, 32)

#: Exchanges per device per sweep (alternating RA and PoX).
EXCHANGES_PER_DEVICE = 4

#: Devices driven through the sharded cluster rows (RA-only mix).
CLUSTER_DEVICES = 32

#: RA exchanges per device for the cluster rows.
CLUSTER_EXCHANGES_PER_DEVICE = 2


def _sweep(size):
    fleet = Fleet(size, architecture="asap")
    return fleet.run(exchanges_per_device=EXCHANGES_PER_DEVICE)


def _cluster_sweep(size, shards):
    fleet = Fleet(size, architecture="asap", cluster=ShardedVerifierCluster(
        shards=shards, placement="process"))
    return fleet.run(exchanges_per_device=CLUSTER_EXCHANGES_PER_DEVICE,
                     mix=("ra",))


def _prover_busy_share(report):
    """Share of the run's wall time spent on prover-side device work."""
    return report.prover_seconds / report.elapsed_seconds


def test_fleet_exchanges_per_second(benchmark, table_printer, bench_json):
    """Exchanges/sec vs fleet size; 32 devices, one service, zero
    challenge-table growth."""
    rows = []
    payload_rows = []
    reports = {}
    for size in FLEET_SIZES:
        report = _sweep(size)
        reports[size] = report
        rows.append({
            "fleet": size,
            "transport": "loopback",
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "exchanges/sec": "%.0f" % report.exchanges_per_second,
            "prover busy": "%.2f" % _prover_busy_share(report),
            "pending after": report.pending_challenges_after,
        })
        payload_rows.append({
            "label": "loopback-%d" % size,
            "fleet_size": size,
            "transport": "loopback",
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "timed_out": report.timed_out,
            "exchanges_per_sec": report.exchanges_per_second,
            "prover_busy_share": _prover_busy_share(report),
            "pending_challenges_after": report.pending_challenges_after,
        })
    table_printer("Fleet service throughput (mixed RA/PoX)", rows)

    # ---- cluster control plane: 1-shard vs 2-shard scaling rows ------
    cluster_rows = []
    cluster_reports = {}
    for shard_count in (1, 2):
        report = _cluster_sweep(CLUSTER_DEVICES, shard_count)
        cluster_reports[shard_count] = report
        cluster_rows.append({
            "shards": shard_count,
            "devices": CLUSTER_DEVICES,
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "exchanges/sec": "%.0f" % report.exchanges_per_second,
            "prover busy": "%.2f" % _prover_busy_share(report),
        })
        payload_rows.append({
            "label": "cluster-%d" % shard_count,
            "fleet_size": CLUSTER_DEVICES,
            "transport": "process-shards",
            "shards": shard_count,
            "exchanges": report.exchanges,
            "accepted": report.accepted,
            "timed_out": report.timed_out,
            "exchanges_per_sec": report.exchanges_per_second,
            "prover_busy_share": _prover_busy_share(report),
        })
    table_printer("Cluster control plane scaling (RA-only)", cluster_rows)

    bench_json("BENCH_fleet.json", {
        "benchmark": "fleet_exchanges_per_second",
        "unit": "exchanges/sec",
        "exchanges_per_device": EXCHANGES_PER_DEVICE,
        "rows": payload_rows,
    })

    # Timing statistics for a small steady-state fleet.
    benchmark.pedantic(lambda: _sweep(4), rounds=3)

    # --- the acceptance bar -------------------------------------------
    big = reports[32]
    assert big.exchanges == 32 * EXCHANGES_PER_DEVICE
    assert big.all_accepted(), \
        [r.reason for r in big.results if not r.accepted]
    # Zero challenge-table growth after the sweep: every issued
    # challenge was consumed by a terminal verdict.
    assert big.pending_challenges_after == 0
    assert big.service_counters["challenges"] == big.exchanges

    # Sharding never costs verdicts, whatever it does for throughput.
    for shard_count, report in cluster_reports.items():
        assert report.exchanges == CLUSTER_DEVICES * CLUSTER_EXCHANGES_PER_DEVICE
        assert report.all_accepted(), (shard_count, report)
    if (os.cpu_count() or 1) >= 2:
        # With real parallelism available, the second shard process must
        # buy throughput: >= 1.5x the single-shard rate at 32 devices.
        # On a single-core runner the two shard processes timeshare one
        # CPU, so the ratio is meaningless and only correctness is held.
        ratio = (cluster_reports[2].exchanges_per_second
                 / cluster_reports[1].exchanges_per_second)
        assert ratio >= 1.5, \
            "2-shard cluster scaled only %.2fx over 1 shard" % ratio


def test_fleet_survives_impaired_links(benchmark, table_printer):
    """A lossy, laggy, reordering link degrades throughput, never
    correctness: exchanges time out cleanly and the table still drains
    (by consumption now, by TTL for the abandoned stragglers)."""

    def impaired_sweep():
        conditions = LinkConditions(loss=0.2, delay=0.001, jitter=0.002,
                                    reorder=0.1, seed=42)
        fleet = Fleet(4, architecture="asap", conditions=conditions,
                      deadline=0.25)
        return fleet.run(exchanges_per_device=4)

    report = benchmark.pedantic(impaired_sweep, rounds=1)
    table_printer("Fleet on an impaired link", [{
        "exchanges": report.exchanges,
        "accepted": report.accepted,
        "timed out": report.timed_out,
        "pending after": report.pending_challenges_after,
    }])
    assert report.exchanges == 16
    assert report.accepted + report.rejected + report.timed_out == 16
    assert report.accepted > 0  # some traffic got through
    # Only challenges stranded by in-flight loss may remain, and each is
    # bounded by the per-device cap until the TTL clears it.
    assert report.pending_challenges_after <= report.timed_out


def test_cluster_soak_1k_devices(benchmark, table_printer):
    """1000 devices, 4 inline shards, one RA exchange each.

    A minutes-long memory/correctness soak of the control plane, not a
    throughput number: excluded from tier-1 and CI, run on demand with
    ``REPRO_SOAK=1 pytest benchmarks/test_bench_fleet.py -k soak -s``.
    """
    import pytest

    if not os.environ.get("REPRO_SOAK"):
        pytest.skip("set REPRO_SOAK=1 to run the 1000-device soak")

    def soak():
        fleet = Fleet(1000, architecture="asap",
                      cluster=ShardedVerifierCluster(shards=4))
        return fleet.run(exchanges_per_device=1, mix=("ra",))

    report = benchmark.pedantic(soak, rounds=1)
    table_printer("Cluster soak (1000 devices, 4 shards)", [{
        "exchanges": report.exchanges,
        "accepted": report.accepted,
        "exchanges/sec": "%.0f" % report.exchanges_per_second,
        "shards": report.shard_count,
    }])
    assert report.exchanges == 1000
    assert report.all_accepted()
    # Every shard's challenge table drained.
    assert all(stats.pending_challenges == 0 for stats in report.shards)
