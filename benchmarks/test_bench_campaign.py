"""Campaign throughput: scenarios/sec versus ``--jobs``.

The perf trajectory so far tracked steps/sec of a single device
(``test_bench_sim_throughput.py``); this bench extends it to **sweep
throughput** -- how many complete scenarios per second the campaign
engine clears on the E9 attack-gallery sweep, serial versus the
process-pool backend at increasing job counts.

On a multi-core box the process backend must reach >= 2x the serial
wall clock at 4 jobs; on single-core CI runners the scaling assertion
is skipped (there is nothing to scale onto) and the table is recorded
for the trajectory only.  Row-for-row identity between the backends
(serial/process/warm) is pinned separately by
``tests/integration/test_campaign.py``.

The table also records the warm persistent process pool, whose workers
keep their per-process caches (assembled firmware images, LTL models,
HMAC key states) across campaigns.

The table also records the **incremental** path: the same sweep against
a cold and then a warm content-addressed result store
(:class:`~repro.sim.store.ResultStore`).  The warm run serves every
scenario from cache -- ``store_hits == len(specs)`` is asserted -- and
must clear >= 10x the cold run's scenarios/sec: the whole point of the
store is that re-running an unchanged sweep costs fingerprints and file
reads, not simulation.

Run with ``pytest benchmarks/test_bench_campaign.py --benchmark-only -s``.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.experiments.runners import security_scenarios
from repro.sim import CampaignRunner, shutdown_warm_pools

#: Required warm-store over cold-store scenarios/sec ratio: serving a
#: sweep from cache must beat executing it by at least this factor.
REQUIRED_STORE_SPEEDUP = 10.0

#: Required wall-clock speedup of 4 process jobs over serial (only
#: asserted when the machine actually has >= 4 CPUs).
REQUIRED_SPEEDUP = 2.0
#: Measurement passes per configuration; best is reported.
REPEATS = 2


def _sweep_seconds(backend, jobs, warm=False):
    specs = security_scenarios()
    best = float("inf")
    for _ in range(REPEATS):
        runner = CampaignRunner(backend=backend, jobs=jobs, warm=warm)
        outcome = runner.run(specs)
        assert outcome.all_ok(), [f.failure_summary() for f in outcome.failures()]
        best = min(best, outcome.elapsed_seconds)
    return best, len(specs)


def test_campaign_scaling_attack_gallery(benchmark, table_printer, bench_json):
    """Scenarios/sec of the E6/E9 attack-gallery sweep vs. backend/jobs."""
    serial_seconds, scenario_count = _sweep_seconds("serial", 1)
    timings = {("serial", 1, False): serial_seconds}
    for backend, jobs, warm in (("process", 2, False),
                                ("process", 4, False),
                                ("process", 4, True)):
        timings[(backend, jobs, warm)], _ = _sweep_seconds(backend, jobs,
                                                           warm=warm)
    shutdown_warm_pools()

    rows = []
    json_rows = []
    for (backend, jobs, warm), seconds in timings.items():
        display = backend + ("+warm" if warm else "")
        rows.append({
            "backend": display, "jobs": jobs,
            "wall clock (s)": "%.2f" % seconds,
            "scenarios/sec": "%.1f" % (scenario_count / seconds),
            "speedup": "%.2fx" % (serial_seconds / seconds),
        })
        json_rows.append({
            # "label" is the stable row key the perf gate
            # (compare_bench.py --profile campaign) joins on.
            "label": "%s-%d%s" % (backend, jobs, "-warm" if warm else ""),
            "backend": backend, "jobs": jobs, "warm": warm,
            "wall_clock_sec": seconds,
            "scenarios_per_sec": scenario_count / seconds,
        })

    # Incremental path: the same sweep against a cold then a warm
    # result store.  The warm run must serve everything from cache.
    with tempfile.TemporaryDirectory() as store_dir:
        cold_runner = CampaignRunner(store=store_dir)
        cold = cold_runner.run(security_scenarios())
        assert cold.all_ok()
        assert cold.store_misses == scenario_count
        warm_runner = CampaignRunner(store=store_dir)
        warm = warm_runner.run(security_scenarios())
        assert warm.all_ok()
        assert warm.store_hits == scenario_count, (
            "warm store run executed scenarios it should have served: "
            "%d hits of %d" % (warm.store_hits, scenario_count))
        assert warm.rows() == cold.rows()
    for label, outcome in (("store-cold", cold), ("store-warm", warm)):
        rows.append({
            "backend": label, "jobs": 1,
            "wall clock (s)": "%.2f" % outcome.elapsed_seconds,
            "scenarios/sec": "%.1f" % outcome.scenarios_per_second,
            "speedup": "%.2fx" % (serial_seconds / outcome.elapsed_seconds),
        })
        json_rows.append({
            "label": label, "backend": "serial", "jobs": 1, "warm": False,
            "wall_clock_sec": outcome.elapsed_seconds,
            "scenarios_per_sec": outcome.scenarios_per_second,
            "store_hits": outcome.store_hits,
            "store_misses": outcome.store_misses,
        })
    table_printer("Campaign throughput (E9 attack gallery, %d scenarios)"
                  % scenario_count, rows)
    bench_json("BENCH_campaign.json", {
        "benchmark": "campaign_scaling_attack_gallery",
        "scenario_count": scenario_count,
        "cpus": os.cpu_count() or 1,
        "rows": json_rows,
    })

    benchmark.pedantic(
        lambda: CampaignRunner().run(security_scenarios()[:2]),
        rounds=1,
    )

    store_speedup = (warm.scenarios_per_second
                     / max(cold.scenarios_per_second, 1e-9))
    assert store_speedup >= REQUIRED_STORE_SPEEDUP, (
        "expected the warm store to clear >= %.0fx the cold run, got %.1fx"
        % (REQUIRED_STORE_SPEEDUP, store_speedup))

    cpus = os.cpu_count() or 1
    if cpus >= 4:
        speedup = serial_seconds / timings[("process", 4, False)]
        assert speedup >= REQUIRED_SPEEDUP, (
            "expected >= %.1fx at 4 jobs on a %d-CPU machine, got %.2fx"
            % (REQUIRED_SPEEDUP, cpus, speedup))
        # The warm pool amortises worker start-up and link/model cache
        # warm-up; it must at least keep pace with the cold pool.
        warm_speedup = timings[("process", 4, False)] / timings[("process", 4, True)]
        assert warm_speedup >= 0.85, (
            "warm pool fell behind the cold pool: %.2fx" % warm_speedup)
    else:
        print("(%d CPU(s): recording the trajectory only, scaling "
              "assertion skipped)" % cpus)


def test_campaign_overhead_is_bounded_serial(benchmark):
    """The engine itself adds little on top of the raw attack bodies."""
    from repro.firmware.attacks import attack_suite

    started = time.perf_counter()
    for scenario in attack_suite():
        scenario.run()
    raw_seconds = time.perf_counter() - started

    outcome = benchmark(lambda: CampaignRunner().run(security_scenarios()))
    assert outcome.all_ok()
    # Declarative dispatch + observation extraction should cost well
    # under half of the raw scenario bodies themselves.
    assert outcome.elapsed_seconds < raw_seconds * 1.5
