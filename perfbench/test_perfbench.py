"""Self-tests of the benchmark (not of the program).

    PYTHONPATH=src python3 -m pytest perfbench -q

They run tiny versions of the workloads: a few exchanges on one pump
device and a two-prover fleet.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import catalog
import oracle
import run
import worker

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def host_speed_loop():
    worker.hostspeed.prepare("pox-async", passes=0)


def _tiny_units(workload, seed=1, trace=1):
    return worker.run_units(workload, seed, seconds=0, trace=trace,
                            pox_exchanges=3, fleet_size=2,
                            fleet_per_device=4)


def _result_line(capsys, workload, units, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    spans.write_text("")
    args = SimpleNamespace(workload=workload, seed=1, trace=trace)
    payload = {"engine": "interp", "crypto": "fast"}
    run.report(args, units, payload, (0.5, [0.5]), 1.0, spans)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", catalog.END_TO_END),
                           ("per_layer", catalog.PER_LAYER)):
        listed = {metric["name"]: (metric["unit"], metric["better"])
                  for metric in spec[section]}
        assert listed == table
    assert all(better in ("higher", "lower")
               for _, better in catalog.PER_LAYER.values())


@pytest.mark.parametrize("workload", ["pox-async", "fleet-mixed"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, tmp_path, workload,
                                               trace):
    units = _tiny_units(workload, trace=trace)
    line = _result_line(capsys, workload, units, trace, tmp_path)
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} \
        == {name: unit for name, (unit, _) in table.items()}
    assert line["attempted"] >= 1


def test_pox_oracle_counts_a_wrong_expectation():
    plan = [(oracle.BENIGN, 0)] * 3
    unit = worker.pox_unit(plan)
    assert unit["misses"] == []
    bench = worker.pump_bench()
    verdicts = [bench.run_pox(setup=worker.untrusted_caller(case, step))
                for case, step in plan]
    wrong = [oracle.pox_miss(oracle.UNTRUSTED, v.accepted, v.output)
             for v in verdicts]
    assert wrong == ["untrusted IRQ accepted"] * 3
    aborted = [oracle.pox_miss(oracle.ABORT, v.accepted, v.output)
               for v in verdicts]
    assert all(miss and miss.startswith("abort accepted") for miss in aborted)


def test_pox_lifetime_past_the_watchdog_point_has_no_reset_or_miss():
    # The never-stopped watchdog would reset the pump around exchange
    # 125-150; the benchmark's caller stops it, as the firmware's main would.
    unit = worker.pox_unit([(oracle.BENIGN, 0)] * 160)
    assert unit["misses"] == []
    assert unit["layers"]["device.watchdog_resets"] == 0


def test_small_unit_tail_is_the_median_replay():
    units = [{"seconds": value / 1000.0, "ops": 1, "latencies_ms": [value]}
             for value in (900.0, 1000.0, 2000.0)]
    assert run.end_to_end(units, 1.0, 0.5)["op_tail_ms"] == 1000.0


def test_fleet_and_reproduce_oracles_count_every_miss():
    units = _tiny_units("fleet-mixed", trace=0)
    assert all(unit["misses"] == [] for unit in units)
    report = SimpleNamespace(exchanges=8, results=[],
                             pending_challenges_after=2,
                             service_counters={"challenges": 7})
    assert len(oracle.fleet_misses(report, expected_exchanges=10)) == 4
    e6 = SimpleNamespace(experiment_id="E6", succeeded=False,
                         rows=[{"holds": True}] * 20)
    fig6 = SimpleNamespace(experiment_id="E4-E5", succeeded=True, rows=[
        {"module": "asap_hwmod - apex_hwmod", "luts": -23, "registers": -3}])
    # E6 failed, one property missing, wrong LUT delta, five experiments absent.
    assert len(oracle.reproduce_misses([e6, fig6])) == 1 + 1 + 1 + 5


def test_misses_reach_failed(capsys, tmp_path):
    units = _tiny_units("pox-async", trace=0)
    units[0]["misses"] = ["planted miss"]
    line = _result_line(capsys, "pox-async", units, 0, tmp_path)
    assert line["failed"] == 1
    assert line["attempted"] == 6


def test_seed_shapes_pox_plan_but_not_fleet_traffic():
    assert oracle.pox_plan(1, 200) == oracle.pox_plan(1, 200)
    assert oracle.pox_plan(1, 200) != oracle.pox_plan(2, 200)
    fleet = [_tiny_units("fleet-mixed", seed=seed, trace=0)[0]["fingerprint"]
             for seed in (1, 2)]
    assert fleet[0] == fleet[1]


def test_determinism_guard_fails_loudly():
    units = _tiny_units("pox-async", trace=0)
    run.check_determinism(units)
    units[1]["fingerprint"]["steps"] += 1
    with pytest.raises(run.BenchmarkError, match="determinism guard"):
        run.check_determinism(units)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pox-async",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert completed.returncode != 0
    assert b'"metrics"' not in completed.stdout
