"""Benchmark for attested work: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload pox-async --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: ``pox-async`` (one ASAP
pump device, back-to-back PoX exchanges with seeded interrupts),
``fleet-mixed`` (16 provers, RA/PoX over loopback, one verifier
service) and ``reproduce`` (the full paper reproduction in a fresh
interpreter per unit).  ``NOTES.md`` says why each was chosen and what
each metric measures.

Every workload runs in child interpreters with the program's library
defaults (no ``REPRO_*`` variable is passed on).  Set-up time is the
median of nine fresh processes that only set up.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from catalog import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pox-async", "fleet-mixed", "reproduce")
SETUP_PROBES = 9
#: Every run has to end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0
#: ``op_tail_ms`` is this percentile over operations.  It needs at
#: least ten samples beyond it, so a unit must hold ``TAIL_MIN_OPS``.
TAIL_PERCENT = 95
TAIL_MIN_OPS = 200


class BenchmarkError(Exception):
    pass


def child_env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(deadline, *args):
    """Run ``worker.py`` with *args*; return its last stdout line as JSON."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before %s" % " ".join(args))
    try:
        completed = subprocess.run(command, cwd=ROOT, env=child_env(),
                                   stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker timed out: %s" % " ".join(args))
    lines = completed.stdout.decode().strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError("worker failed (exit %d): %s"
                             % (completed.returncode, " ".join(args)))
    return json.loads(lines[-1])


def speed_factor(measured):
    """Scale from the host speed seen by *measured*'s calibration samples
    to the reference speed of their loop."""
    return measured["reference_s"] / statistics.median(measured["calibration"])


def measure_setup(workload, deadline):
    """Median set-up time of fresh processes, spawn to first operation,
    at reference speed; also the raw times."""
    probes = [run_worker(deadline, "--role", "setup", "--workload", workload,
                         "--spawned-at", repr(time.time()))
              for _ in range(SETUP_PROBES)]
    raw = [probe["setup_s"] for probe in probes]
    scaled = [probe["setup_s"] * speed_factor(probe)
              for probe in probes]
    return statistics.median(scaled), raw


def at_reference_speed(unit):
    """*unit* with every timing scaled to the reference host speed."""
    factor = speed_factor(unit)
    layers = {
        name: value * factor
        if PER_LAYER.get(name, ("",))[0] in ("ms", "us", "s") else value
        for name, value in unit["layers"].items()
    }
    return dict(unit, factor=factor, raw_seconds=unit["seconds"],
                seconds=unit["seconds"] * factor,
                latencies_ms=[value * factor
                              for value in unit["latencies_ms"]],
                layers=layers)


def run_workload(args, deadline, spans_path):
    """All units of one run, plus the peak RSS of the processes that ran them."""
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--spans", str(spans_path)]
    if args.workload != "reproduce":
        payload = run_worker(deadline, "--role", "run", *common,
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace))
        return payload["units"], payload["rss_mb"], payload
    # One fresh interpreter per reproduction (the first one untraced).
    units, rss, payload = [], 0.0, None
    min_units = 3 if args.trace else 2
    started = time.monotonic()
    while len(units) < min_units or time.monotonic() - started < args.seconds:
        traced = "1" if args.trace and units else "0"
        payload = run_worker(deadline, "--role", "unit", *common,
                             "--trace", traced)
        units.extend(payload["units"])
        rss = max(rss, payload["rss_mb"])
    return units, rss, payload


def check_determinism(units):
    """Every unit replays the same inputs, so every fingerprint agrees."""
    first = {}
    for index, unit in enumerate(units):
        for key, value in unit["fingerprint"].items():
            if key not in first:
                first[key] = (index, value)
            elif first[key][1] != value:
                raise BenchmarkError(
                    "determinism guard: %s differs between unit %d (%r) and "
                    "unit %d (%r)" % (key, first[key][0], first[key][1],
                                      index, value))


def percentile(samples, percent):
    return statistics.quantiles(samples, n=100)[percent - 1]


def median_replays(units):
    """Each operation's median latency over the units that replayed it."""
    return [statistics.median(replays)
            for replays in zip(*(unit["latencies_ms"] for unit in units))]


def interquartile_mean(samples):
    """Mean of the middle half of *samples* (all of them when n < 4)."""
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return statistics.mean(ordered[quarter:len(ordered) - quarter])


def end_to_end(units, rss_mb, setup_s):
    """Throughput and typical latency pooled over *units*, and the tail.

    The typical latency is the interquartile mean, not the median:
    ``fleet-mixed`` alternates RA and PoX exactly, so its median falls
    in the gap between the two latency modes and moved by a quarter
    between runs.  Every unit replays the same operations, so the tail
    is taken over each operation's median replay: a burst that stalls
    one replay does not set it, an operation slow on every replay does.
    It is their p95 where a unit holds >= ``TAIL_MIN_OPS`` operations,
    otherwise their maximum.  Above the p95, ``fleet-mixed`` runs into
    event-loop bursts: its p99 spread 0.18 over ten seeds, its p95 0.03.
    """
    seconds = sum(unit["seconds"] for unit in units)
    ops = sum(unit["ops"] for unit in units)
    latencies = [value for unit in units for value in unit["latencies_ms"]]
    replayed = median_replays(units)
    if units[0]["ops"] >= TAIL_MIN_OPS:
        tail = percentile(replayed, TAIL_PERCENT)
    else:
        tail = max(replayed)
    return {
        "ops_per_s": ops / seconds,
        "op_iqm_ms": interquartile_mean(latencies),
        "op_tail_ms": tail,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def per_layer(units, error_rate):
    """Medians over the traced units, plus the tracing overhead."""
    traced = [unit for unit in units if unit["traced"]]
    untraced = [unit for unit in units if not unit["traced"]]
    values = {
        name: statistics.median(unit["layers"].get(name, 0.0)
                                for unit in traced)
        for name in PER_LAYER
    }

    def rate(group):
        return (sum(unit["ops"] for unit in group)
                / sum(unit["seconds"] for unit in group))

    values["error_rate"] = error_rate
    values["bench.untraced_ops_per_s"] = rate(untraced)
    values["bench.traced_ops_per_s"] = rate(traced)
    values["bench.trace_overhead"] = rate(untraced) / rate(traced)
    return values


def self_time_table(spans_path):
    """Per-span-name calls, inclusive and self seconds from the JSONL."""
    table = {}
    with open(spans_path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            row = table.setdefault(span["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span["end_s"] - span["start_s"]
            row[2] += span["self_s"]
    return table


def report(args, units, payload, setup, rss_mb, spans_path):
    """Print the human-readable summary, then the result line."""
    check_determinism(units)
    units = [at_reference_speed(unit) for unit in units]
    attempted = sum(unit["attempted"] for unit in units)
    misses = [miss for unit in units for miss in unit["misses"]]
    error_rate = len(misses) / attempted
    untraced = [unit for unit in units if not unit["traced"]]
    setup_s, raw_setup = setup
    e2e = end_to_end(untraced, rss_mb, setup_s)
    samples = untraced[0]["ops"]

    print("workload %s  seed %d  units %d (%d traced)  engine %s  crypto %s"
          % (args.workload, args.seed, len(units), len(units) - len(untraced),
             payload["engine"], payload["crypto"]))
    print("host speed factor per unit (reference / now): %s"
          % " ".join("%.3f" % unit["factor"] for unit in units))
    print("raw: setup probes %s s; unit seconds %s"
          % (" ".join("%.4f" % value for value in raw_setup),
             " ".join("%.3f" % unit["raw_seconds"] for unit in units)))
    latencies = [value for unit in untraced for value in unit["latencies_ms"]]
    if args.workload == "reproduce":
        print("reproduce_s %.4f s (median of %d untraced reproductions)"
              % (statistics.median(latencies) / 1000.0, len(untraced)))
    else:
        layers = untraced[0]["layers"]
        print("exchanges_per_s %.2f 1/s  exchange_p50_ms %.3f ms  "
              "exchange_p95_ms %.3f ms  exchange_p99_ms %.3f ms  "
              "(%d exchanges per unit, %d units; tails over each "
              "exchange's median replay)"
              % (e2e["ops_per_s"], statistics.median(latencies),
                 e2e["op_tail_ms"],
                 percentile(median_replays(untraced), 99),
                 samples, len(untraced)))
        print("sim_cycles_per_exchange %.2f cycles  device.watchdog_resets %d"
              "  device.trace_entries %d"
              % (layers["sim_cycles_per_exchange"],
                 layers["device.watchdog_resets"],
                 layers["device.trace_entries"]))
    print("error_rate %.6f (%d of %d checks missed)"
          % (error_rate, len(misses), attempted))
    for miss, count in Counter(misses).most_common(8):
        print("  miss x%d: %s" % (count, miss))

    if args.trace:
        metrics = per_layer(units, error_rate)
        catalogue = PER_LAYER
        print("spans written to %s (raw times)" % os.path.relpath(spans_path, ROOT))
        for name, (calls, total, self_s) in sorted(
                self_time_table(spans_path).items()):
            print("  span %-18s calls %7d  total %9.4f s  self %9.4f s"
                  % (name, calls, total, self_s))
    else:
        metrics = e2e
        catalogue = END_TO_END
    for name, value in metrics.items():
        print("%s %r %s" % (name, value, catalogue[name][0]))
    # Reaching here means every unit ran and reported (a failed worker
    # raises BenchmarkError), every operation went through the oracle,
    # whose misses are in "failed", and the determinism guard held.
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": len(misses),
        "metrics": {name: {"value": value, "unit": catalogue[name][0]}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program at %s; run from the root of a checkout"
              % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = out_dir / (stem + ".spans.jsonl")
    units_path = out_dir / (stem + ".units.json")
    if spans_path.exists():
        spans_path.unlink()
    try:
        setup = measure_setup(args.workload, deadline)
        units, rss_mb, payload = run_workload(args, deadline, spans_path)
        units_path.write_text(json.dumps(units))
        report(args, units, payload, setup, rss_mb, spans_path)
    except BenchmarkError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
