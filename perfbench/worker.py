"""The workloads, run inside a fresh interpreter by ``run.py``.

Roles:

* ``setup``: build what one run of the workload needs, then print its
  set-up time (from the parent's spawn to here) and exit;
* ``run``: run ``pox-async`` or ``fleet-mixed`` units until
  ``--seconds`` have passed, print one JSON object;
* ``unit``: one ``reproduce`` unit (a full paper reproduction), print
  one JSON object.

A *unit* is one device or fleet lifetime, or one reproduction.  Every
unit of a run replays the same seeded inputs, which is what lets
``run.py`` check determinism across them.  With ``--trace 1`` the first
unit runs untraced and the rest traced, so the tracing overhead is
measured inside the same run.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import time

from repro.apex.pox import PoxProtocol, PoxVerifier
from repro.cpu.engine import engine_name
from repro.crypto.backend import backend_name
from repro.firmware.syringe_pump import PumpParameters, syringe_pump_firmware
from repro.firmware.testbench import PoxTestbench
from repro.ltl import properties
from repro.ltl.model_checker import ModelChecker
from repro.net import Fleet
from repro.net.prover import ProverEndpoint
from repro.obs.metrics import get_registry
from repro.peripherals.registers import PeripheralRegisters, WatchdogBits
from repro.vrased.protocol import Verifier
from repro.vrased.swatt import SwAtt

import hostspeed
from oracle import (ABORT, DOSAGE, REPRODUCE_CHECKS, UNTRUSTED, fleet_misses,
                    pox_miss, pox_plan, reproduce_misses)
from tracing import Tracer

#: Exchanges per pox-async device lifetime, never reset in between.
POX_EXCHANGES = 1000
FLEET_SIZE = 16
#: Exchanges per prover per fleet lifetime; the blinker's watchdog
#: fires around the prover's 148th PoX exchange (its ~296th exchange).
FLEET_EXCHANGES_PER_DEVICE = 400
FLEET_MIX = ("ra", "pox")
#: Host-speed samples: one before every 25 pox-async exchanges (~0.1 s),
#: one every 0.25 s of fleet traffic, one before each model check of a
#: reproduction, nine after each set-up probe.
CALIBRATE_EVERY = 25
FLEET_SAMPLE_INTERVAL_S = 0.25
CALIBRATION_SAMPLES = 9


def digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def registry_layers():
    """Per-layer figures the program's metrics registry already exports."""
    snapshot = get_registry().snapshot()
    gauges = snapshot["gauges"]
    counters = snapshot["counters"]
    scenario_seconds = snapshot["histograms"].get("campaign.scenario_seconds")
    return {
        "cpu.decode_cache_hit_rate": gauges.get("cache.hit_rate", 0.0),
        "cpu.engine_block_runs": sum(
            value for key, value in gauges.items()
            if key.startswith("engine.") and key.endswith(".block_runs")),
        "sim.scenarios": counters.get("campaign.scenarios", 0),
        "sim.failures": counters.get("campaign.failures", 0),
        "sim.scenario_p50_ms": (scenario_seconds["p50"] * 1000.0
                                if scenario_seconds else 0.0),
    }


def device_layers(benches, pox_exchanges):
    """Counts read off the devices at the end of a lifetime."""
    devices = [bench.device for bench in benches]
    steps = sum(device.step_number for device in devices)
    cycles = sum(device.trace.total_cycles for device in devices)
    return {
        "device.steps_per_exchange": steps / pox_exchanges,
        "sim_cycles_per_exchange": cycles / pox_exchanges,
        "apex.violations": sum(len(bench.monitor.violations)
                               for bench in benches),
        "device.watchdog_resets": sum(device.watchdog_resets
                                      for device in devices),
        "device.trace_entries": sum(len(device.trace) for device in devices),
    }


# ---------------------------------------------------------------- tracing

def _report_device(_self, report, *args, **kwargs):
    return report.device_id


def trace_exchange_layers(tracer):
    """Wrap the entry points an attested exchange passes through."""
    tracer.wrap(ProverEndpoint, "run_pox", "net.pox", exchange=True,
                device_of=lambda endpoint, *a, **k: endpoint.device_id)
    tracer.wrap(ProverEndpoint, "run_attestation", "net.ra", exchange=True,
                device_of=lambda endpoint, *a, **k: endpoint.device_id)
    tracer.wrap(Verifier, "create_request", "vrased.challenge",
                device_of=lambda _self, device_id: device_id)
    tracer.wrap(PoxProtocol, "install_challenge", "vrased.install")
    tracer.wrap(PoxProtocol, "call_executable", "device.execute")
    tracer.wrap(SwAtt, "measure", "vrased.attest")
    tracer.wrap(PoxVerifier, "verify", "core.verify", device_of=_report_device)
    tracer.wrap(Verifier, "verify", "vrased.verify", device_of=_report_device)


def span_layers(tracer, seconds, exchanges, steps):
    """Per-layer times of one traced lifetime of *steps* device steps."""
    execute_s, executions = tracer.totals(["device.execute"])
    challenge_s, _ = tracer.totals(["vrased.challenge", "vrased.install"])
    attest_s, _ = tracer.totals(["vrased.attest"])
    verify_s, _ = tracer.totals(["core.verify", "vrased.verify"],
                                top_level_only=True)
    prover_share = (execute_s + attest_s) / seconds
    verifier_share = verify_s / seconds
    return {
        "device.execute_ms": 1000.0 * execute_s / max(executions, 1),
        "device.host_us_per_step": 1e6 * execute_s / max(steps, 1),
        "vrased.challenge_ms": 1000.0 * challenge_s / exchanges,
        "vrased.attest_ms": 1000.0 * attest_s / exchanges,
        "core.verify_ms": 1000.0 * verify_s / exchanges,
        "net.prover_busy_share": prover_share,
        "net.verifier_busy_share": verifier_share,
        "net.loop_other_share": 1.0 - prover_share - verifier_share,
        "bench.spans": len(tracer.spans),
    }


# ---------------------------------------------------------------- pox-async

def untrusted_caller(case, step):
    """The ``setup`` callback: the untrusted code that invokes ER.

    It stops the watchdog first, as the firmware's own ``main`` would:
    ``call_executable`` returns at ER exit, before ``main`` reaches its
    watchdog stop, so a never-stopped watchdog would reset the device
    mid-ER about 125 exchanges into its lifetime and the verifier would
    accept that unfinished dose (``NOTES.md``, defect 1).  The benchmark
    runs only workloads on which no operation fails; ``fleet-mixed``,
    whose provers do not stop it, still shows that reset.  It re-arms
    P1IE/P5IE, which a PUC would clear, then schedules the seeded event.
    """
    def setup(device):
        device.memory.load_word(PeripheralRegisters.WDTCTL,
                                WatchdogBits.PASSWORD | WatchdogBits.HOLD)
        device.memory.load_bytes(PeripheralRegisters.P1IE, b"\x01")
        device.memory.load_bytes(PeripheralRegisters.P5IE, b"\x01")
        if case == ABORT:
            device.schedule_button_press(device.step_number + step)
        elif case == UNTRUSTED:
            device.schedule_button_press(device.step_number + step,
                                         port=device.gpio5)
    return setup


def pump_bench():
    return PoxTestbench(syringe_pump_firmware(
        PumpParameters(dosage_cycles=DOSAGE)))


def pox_unit(plan, tracer=None):
    """One device lifetime: back-to-back exchanges, never reset."""
    bench = pump_bench()
    device_id = bench.config.device_id
    verdicts = []
    latencies = []
    calibration = []
    started = time.perf_counter()
    for index, (case, step) in enumerate(plan):
        if index % CALIBRATE_EVERY == 0:
            calibration.append(hostspeed.sample())
        setup = untrusted_caller(case, step)
        scope = (tracer.exchange("exchange.pox", device_id) if tracer
                 else contextlib.nullcontext())
        begun = time.perf_counter()
        with scope:
            result = bench.run_pox(setup=setup)
        latencies.append(time.perf_counter() - begun)
        verdicts.append((result.accepted, result.output))
    seconds = time.perf_counter() - started - sum(calibration)

    misses = [miss for (case, _), (accepted, output) in zip(plan, verdicts)
              for miss in [pox_miss(case, accepted, output)] if miss]
    layers = device_layers([bench], len(plan))
    layers.update(registry_layers())
    fingerprint = {
        "verdicts": "".join("A" if accepted else "R"
                            for accepted, _ in verdicts),
        "outputs": digest([output.hex() for _, output in verdicts]),
        "steps": bench.device.step_number,
        "cycles": bench.device.trace.total_cycles,
        "violations": layers["apex.violations"],
    }
    if tracer is not None:
        layers.update(span_layers(tracer, seconds, len(plan),
                                  bench.device.step_number))
    return unit_result(seconds, latencies, len(plan), misses, fingerprint,
                       layers, tracer is not None, calibration)


# ---------------------------------------------------------------- fleet-mixed

def fleet_unit(size=FLEET_SIZE, per_device=FLEET_EXCHANGES_PER_DEVICE,
               tracer=None):
    """One fleet lifetime over in-process loopback links."""
    fleet = Fleet(size, architecture="asap")
    calibration = []
    report = asyncio.run(sampling(
        fleet.run_async(exchanges_per_device=per_device, mix=FLEET_MIX),
        calibration))
    by_kind = {}
    for result in report.results:
        by_kind.setdefault(result.kind, []).append(result.elapsed_seconds)
    pox_exchanges = report.exchanges - len(by_kind.get("ra", ()))
    layers = device_layers(fleet.benches, max(pox_exchanges, 1))
    layers.update(registry_layers())
    layers.update({
        "net.ra_p50_ms": 1000.0 * statistics.median(by_kind.get("ra", [0.0])),
        "net.pox_p50_ms": 1000.0 * statistics.median(
            by_kind.get("asap", [0.0])),
        "net.retransmits": report.retransmits,
        "service.duplicates": report.service_counters.get("duplicates", 0),
        "service.pending_challenges_after": report.pending_challenges_after,
    })
    fingerprint = {
        "verdicts": digest([(r.kind, r.accepted, r.timed_out)
                            for r in report.results]),
        "steps": [bench.device.step_number for bench in fleet.benches],
        "cycles": [bench.device.trace.total_cycles for bench in fleet.benches],
        "violations": layers["apex.violations"],
    }
    if tracer is not None:
        layers.update(span_layers(tracer, report.elapsed_seconds,
                                  report.exchanges, sum(fingerprint["steps"])))
    expected = size * per_device
    return unit_result(report.elapsed_seconds,
                       [r.elapsed_seconds for r in report.results], expected,
                       fleet_misses(report, expected), fingerprint, layers,
                       tracer is not None, calibration)


async def sampling(traffic, calibration):
    """Await *traffic* while a task on the same loop samples host speed.

    The samples take ~1% of the loop; they stay inside the traffic time.
    """
    async def sampler():
        while True:
            calibration.append(hostspeed.sample())
            await asyncio.sleep(FLEET_SAMPLE_INTERVAL_S)

    task = asyncio.ensure_future(sampler())
    try:
        return await traffic
    finally:
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)


def unit_result(seconds, latencies, attempted, misses, fingerprint, layers,
                traced, calibration):
    """The JSON shape every unit reports to ``run.py``."""
    return {
        "traced": traced,
        "seconds": seconds,
        "ops": len(latencies),
        "latencies_ms": [1000.0 * value for value in latencies],
        "attempted": attempted,
        "misses": misses,
        "fingerprint": fingerprint,
        "layers": layers,
        "calibration": calibration,
        "reference_s": hostspeed.reference_s,
    }


# ---------------------------------------------------------------- reproduce

def reproduce_unit(tracer=None):
    """One full paper reproduction, as ``python -m repro.experiments``."""
    from repro.experiments.runners import run_all_experiments

    checks = []
    if tracer is not None:
        for name in list(properties.MODEL_BUILDERS):
            tracer.wrap_callable(properties.MODEL_BUILDERS, name, "ltl.build")
        tracer.wrap(ModelChecker, "check", "ltl.check",
                    on_result=checks.append)
    # Host speed is sampled before each of the 21 model checks, which
    # fill ~98% of a reproduction; the samples' own time is taken out.
    calibration = []
    check = ModelChecker.check

    def sampled_check(*args, **kwargs):
        calibration.append(hostspeed.sample())
        return check(*args, **kwargs)

    ModelChecker.check = sampled_check
    try:
        started = time.perf_counter()
        results = run_all_experiments()
        seconds = time.perf_counter() - started - sum(calibration)
    finally:
        ModelChecker.check = check

    layers = registry_layers()
    for result in results:
        layers["experiments.%s_s" % result.experiment_id] = \
            result.elapsed_seconds
    fingerprint = {"rows": digest([result.rows for result in results])}
    if tracer is not None:
        layers["ltl.build_s"] = tracer.totals(["ltl.build"])[0]
        layers["ltl.check_s"] = tracer.totals(["ltl.check"])[0]
        layers["ltl.states_explored"] = sum(c.states_explored for c in checks)
        layers["ltl.transitions_checked"] = sum(c.transitions_checked
                                                for c in checks)
        layers["bench.spans"] = len(tracer.spans)
        fingerprint["transitions"] = layers["ltl.transitions_checked"]
    return unit_result(seconds, [seconds], REPRODUCE_CHECKS,
                       reproduce_misses(results), fingerprint, layers,
                       tracer is not None, calibration)


# ---------------------------------------------------------------- roles

def setup_workload(workload):
    """Everything a run builds before its first timed operation."""
    if workload == "pox-async":
        pump_bench()
    elif workload == "fleet-mixed":
        Fleet(FLEET_SIZE, architecture="asap").run(exchanges_per_device=0)
    else:
        import repro.experiments.runners  # noqa: F401


def run_units(workload, seed, seconds, trace, spans_path=None,
              pox_exchanges=POX_EXCHANGES, fleet_size=FLEET_SIZE,
              fleet_per_device=FLEET_EXCHANGES_PER_DEVICE):
    """Run units until *seconds* have passed (and at least two, three
    when traced: one untraced reference plus two traced replays)."""
    min_units = 3 if trace else 2
    hostspeed.prepare(workload)
    plan = pox_plan(seed, pox_exchanges)
    units = []
    started = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - started < seconds:
        tracer = Tracer() if trace and units else None
        if tracer is not None:
            trace_exchange_layers(tracer)
        try:
            if workload == "pox-async":
                unit = pox_unit(plan, tracer)
            else:
                unit = fleet_unit(fleet_size, fleet_per_device, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None and spans_path:
            tracer.write_jsonl(spans_path, started)
        units.append(unit)
        gc.collect()
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run", "unit"),
                        required=True)
    parser.add_argument("--workload", required=True,
                        choices=("pox-async", "fleet-mixed", "reproduce"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="the parent's time.time() at spawn")
    parser.add_argument("--spans", default=None,
                        help="append traced spans to this JSONL file")
    args = parser.parse_args(argv)

    if args.role == "setup":
        setup_workload(args.workload)
        setup_s = time.time() - args.spawned_at
        hostspeed.prepare(args.workload)
        print(json.dumps({
            "setup_s": setup_s,
            "calibration": hostspeed.samples(CALIBRATION_SAMPLES),
            "reference_s": hostspeed.reference_s,
        }))
        return 0
    if args.role == "unit":
        hostspeed.prepare(args.workload)
        started = time.perf_counter()
        tracer = Tracer() if args.trace else None
        try:
            unit = reproduce_unit(tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None and args.spans:
            tracer.write_jsonl(args.spans, started)
        payload = {"units": [unit]}
    else:
        payload = {"units": run_units(args.workload, args.seed, args.seconds,
                                      args.trace, args.spans)}
    payload["rss_mb"] = peak_rss_mb()
    payload["engine"] = engine_name()
    payload["crypto"] = backend_name()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
