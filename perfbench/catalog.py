"""Every metric the benchmark emits: name -> (unit, better).

``BENCHMARK.json`` at the repository root lists the same names, units
and directions; ``test_perfbench.py`` pins the two against each other,
so a metric cannot be renamed in one place only.  ``NOTES.md`` says
which layer each metric measures and which workload should move it.
"""

#: Measured with tracing off (``--trace 0``).  Every workload reports
#: every one of them; an *operation* is one PoX exchange (pox-async),
#: one RA or PoX exchange (fleet-mixed) or one full paper reproduction
#: (reproduce).
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_iqm_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: Experiment ids of ``run_all_experiments()``, in run order.
EXPERIMENT_IDS = ("E1-E3", "E4-E5", "E6", "E7", "E8", "E9", "FLEET")

#: Measured in the traced run (``--trace 1``).  A layer a workload does
#: not exercise reports 0 there.
PER_LAYER = {
    "device.execute_ms": ("ms", "lower"),
    "device.host_us_per_step": ("us", "lower"),
    "device.steps_per_exchange": ("count", "lower"),
    "sim_cycles_per_exchange": ("cycles", "lower"),
    "vrased.challenge_ms": ("ms", "lower"),
    "vrased.attest_ms": ("ms", "lower"),
    "core.verify_ms": ("ms", "lower"),
    "cpu.decode_cache_hit_rate": ("ratio", "higher"),
    "cpu.engine_block_runs": ("count", "higher"),
    "apex.violations": ("count", "lower"),
    "device.watchdog_resets": ("count", "lower"),
    "device.trace_entries": ("count", "lower"),
    "net.ra_p50_ms": ("ms", "lower"),
    "net.pox_p50_ms": ("ms", "lower"),
    "net.prover_busy_share": ("ratio", "lower"),
    "net.verifier_busy_share": ("ratio", "lower"),
    "net.loop_other_share": ("ratio", "lower"),
    "net.retransmits": ("count", "lower"),
    "service.duplicates": ("count", "lower"),
    "service.pending_challenges_after": ("count", "lower"),
}
PER_LAYER.update(
    ("experiments.%s_s" % experiment_id, ("s", "lower"))
    for experiment_id in EXPERIMENT_IDS
)
PER_LAYER.update({
    "ltl.build_s": ("s", "lower"),
    "ltl.check_s": ("s", "lower"),
    "ltl.states_explored": ("count", "lower"),
    "ltl.transitions_checked": ("count", "lower"),
    "sim.scenarios": ("count", "higher"),
    "sim.failures": ("count", "lower"),
    "sim.scenario_p50_ms": ("ms", "lower"),
    "error_rate": ("ratio", "lower"),
    "bench.untraced_ops_per_s": ("1/s", "higher"),
    "bench.traced_ops_per_s": ("1/s", "higher"),
    "bench.trace_overhead": ("ratio", "lower"),
    "bench.spans": ("count", "lower"),
})
