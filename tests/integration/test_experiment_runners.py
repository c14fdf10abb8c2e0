"""Integration tests for the programmatic experiment runners."""

import json

import pytest

from repro.experiments import (
    ExperimentResult,
    load_json,
    run_all_experiments,
    run_busywait_ablation,
    run_fig5_waveforms,
    run_fig6_overhead,
    run_runtime_overhead,
    write_json,
)
from repro.experiments import runners
from repro.experiments.__main__ import ALL_IDS, main


class TestIndividualRunners:
    def test_fig5_runner_covers_three_scenarios(self):
        result = run_fig5_waveforms()
        assert result.succeeded
        assert len(result.rows) == 3
        assert [row["proof accepted"] for row in result.rows] == [True, False, False]

    def test_fig6_runner_reports_negative_deltas(self):
        result = run_fig6_overhead()
        assert result.succeeded
        delta_row = result.rows[-1]
        assert delta_row["luts"] < 0 and delta_row["registers"] < 0

    def test_runtime_runner_zero_overhead(self):
        result = run_runtime_overhead()
        assert result.succeeded
        assert all(row["overhead vs. unprotected"] == 0 for row in result.rows)

    def test_busywait_runner_parameters(self):
        result = run_busywait_ablation(dosage_cycles=150, abort_step=20)
        assert result.succeeded
        assert len(result.rows) == 2

    def test_render_produces_table_text(self):
        result = run_fig6_overhead()
        text = result.render()
        assert "E4-E5" in text and "apex_hwmod" in text and "status: ok" in text

    def test_result_dataclass_defaults(self):
        result = ExperimentResult("EX", "title")
        assert result.succeeded
        assert "EX" in result.render()


class TestCommandLine:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == ALL_IDS

    def test_unknown_id_rejected(self, capsys):
        assert main(["E42"]) == 2

    def test_single_experiment_run(self, capsys):
        assert main(["E7"]) == 0
        output = capsys.readouterr().out
        assert "Runtime overhead" in output
        assert "All 1 experiments" in output

    def test_unknown_flag_rejected_with_exit_code_2(self, capsys):
        # Regression: the pre-argparse CLI silently dropped any
        # unrecognised ``-``-prefixed argument, so a typo like --liist
        # ran every experiment and exited 0.
        assert main(["--liist"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_flag_with_valid_id_still_rejected(self, capsys):
        assert main(["E7", "--bogus-flag"]) == 2

    def test_bad_jobs_value_rejected(self, capsys):
        assert main(["E7", "--jobs", "0"]) == 2
        assert main(["E7", "--jobs", "nope"]) == 2

    def test_multiple_ids_select_subset_in_order(self, capsys):
        assert main(["E7", "E4-E5"]) == 0
        output = capsys.readouterr().out
        # Execution order follows the registry, not the argv order.
        assert output.index("E4-E5") < output.index("E7 ")
        assert "All 2 experiments" in output

    def test_json_export_round_trips(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["E7", "E4-E5", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert [entry["experiment_id"] for entry in payload] == ["E4-E5", "E7"]
        assert all(entry["succeeded"] for entry in payload)
        # load_json reconstructs equivalent results: same rows, row for row.
        direct = run_all_experiments(skip=[i for i in ALL_IDS
                                           if i not in ("E4-E5", "E7")])
        loaded = load_json(path)
        assert [r.rows for r in loaded] == [r.rows for r in direct]

    def test_failing_experiment_exits_nonzero(self, capsys, monkeypatch):
        def failing_runner(campaign=None):
            return ExperimentResult("E7", "forced failure", succeeded=False)

        monkeypatch.setitem(runners.EXPERIMENT_RUNNERS, "E7", failing_runner)
        assert main(["E7"]) == 1
        assert "FAILED experiments: E7" in capsys.readouterr().out

    def test_process_backend_flags_accepted(self, capsys):
        assert main(["E7", "--backend", "process", "--jobs", "2"]) == 0
        assert "All 1 experiments" in capsys.readouterr().out

    def test_thread_backend_flag_rejected(self, capsys):
        assert main(["E7", "--backend", "thread", "--jobs", "2"]) == 2

    def test_warm_pool_flag_runs_and_shuts_down(self, capsys):
        from repro.sim import shutdown_warm_pools

        try:
            assert main(["E7", "--backend", "process", "--jobs", "2",
                         "--warm-pool"]) == 0
        finally:
            shutdown_warm_pools()

    def test_warm_pool_requires_process_backend(self, capsys):
        assert main(["E7", "--warm-pool"]) == 2
        assert "--warm-pool requires" in capsys.readouterr().err
        assert main(["E7", "--backend", "remote", "--warm-pool"]) == 2

    def test_fleet_experiment_runs_with_cluster_flags(self, capsys):
        assert main(["FLEET", "--shards", "2", "--heartbeat", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out
        assert "All 1 experiments" in out

    def test_bad_shards_value_rejected(self, capsys):
        assert main(["FLEET", "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_bad_heartbeat_value_rejected(self, capsys):
        assert main(["FLEET", "--heartbeat", "0"]) == 2
        assert "--heartbeat must be > 0" in capsys.readouterr().err

    def test_fail_fast_flag_accepted(self, capsys):
        assert main(["E7", "--fail-fast"]) == 0
        assert "All 1 experiments" in capsys.readouterr().out

    def test_fail_fast_accepted_with_remote_backend(self, capsys):
        assert main(["E7", "--backend", "remote", "--jobs", "2",
                     "--fail-fast"]) == 0
        assert "All 1 experiments" in capsys.readouterr().out

    def test_telemetry_flag_exports_jsonl(self, capsys, tmp_path):
        import json

        telemetry = tmp_path / "telemetry"
        assert main(["E7", "--telemetry", str(telemetry)]) == 0
        assert "wrote telemetry" in capsys.readouterr().out
        records = [json.loads(line) for line in
                   (telemetry / "telemetry.jsonl").read_text().splitlines()]
        kinds = {record["record"] for record in records}
        assert kinds == {"metrics", "span"}
        metrics = next(r for r in records if r["record"] == "metrics")
        assert metrics["counters"]["campaign.scenarios"] > 0

    def test_store_prune_flags_require_store(self, capsys):
        assert main(["E7", "--store-prune-entries", "5"]) == 2
        assert "require --store" in capsys.readouterr().err
        assert main(["E7", "--store-prune-age", "60"]) == 2
        assert "require --store" in capsys.readouterr().err

    def test_negative_store_prune_values_rejected(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["E7", "--store", store,
                     "--store-prune-entries", "-1"]) == 2
        assert "--store-prune-entries" in capsys.readouterr().err
        assert main(["E7", "--store", store,
                     "--store-prune-age", "-1"]) == 2
        assert "--store-prune-age" in capsys.readouterr().err

    def test_store_prune_gc_prints_summary(self, capsys, tmp_path):
        from repro.sim import ResultStore

        store = str(tmp_path / "store")
        assert main(["E7", "--store", store]) == 0
        populated = len(ResultStore(store))
        assert populated > 0
        capsys.readouterr()
        assert main(["E7", "--store", store,
                     "--store-prune-entries", "0"]) == 0
        out = capsys.readouterr().out
        assert "result store pruned: %d entr" % populated in out
        assert ", 0 kept in" in out
        assert len(ResultStore(store)) == 0

    def test_store_prune_age_keeps_fresh_entries(self, capsys, tmp_path):
        from repro.sim import ResultStore

        store = str(tmp_path / "store")
        assert main(["E7", "--store", store,
                     "--store-prune-age", "3600"]) == 0
        out = capsys.readouterr().out
        assert "result store pruned: 0 entries removed" in out
        assert len(ResultStore(store)) > 0

    def test_cli_reads_the_registry_live(self, capsys, monkeypatch):
        def extra_runner(campaign=None):
            return ExperimentResult("E10", "registered after import")

        registry = dict(runners.EXPERIMENT_RUNNERS)
        registry["E10"] = extra_runner
        monkeypatch.setattr(runners, "EXPERIMENT_RUNNERS", registry)
        assert main(["--list"]) == 0
        assert "E10" in capsys.readouterr().out.split()
        assert main(["E10"]) == 0
        assert "All 1 experiments" in capsys.readouterr().out


class TestRunAllExperiments:
    def test_skip_subsets_the_registry(self):
        results = run_all_experiments(skip=["E4-E5", "E6", "E8", "E9", "FLEET"])
        assert [r.experiment_id for r in results] == ["E1-E3", "E7"]
        assert all(r.succeeded for r in results)

    def test_overrides_substitute_a_runner_without_mutating_registry(self):
        def stub(campaign=None):
            return ExperimentResult("FLEET", "stubbed", succeeded=True)

        skip = [i for i in ALL_IDS if i != "FLEET"]
        results = run_all_experiments(skip=skip, overrides={"FLEET": stub})
        assert [r.experiment_id for r in results] == ["FLEET"]
        assert results[0].title == "stubbed"
        assert runners.EXPERIMENT_RUNNERS["FLEET"] is runners.run_fleet_control

    def test_skip_everything_runs_nothing(self):
        assert run_all_experiments(skip=list(ALL_IDS)) == []

    def test_write_and_load_json_helpers(self, tmp_path):
        results = [ExperimentResult("EX", "title", rows=[{"a": 1}],
                                    notes=["n"], succeeded=True)]
        path = tmp_path / "out.json"
        write_json(results, path)
        loaded = load_json(path)
        assert len(loaded) == 1
        assert loaded[0].experiment_id == "EX"
        assert loaded[0].rows == [{"a": 1}]
        assert loaded[0].notes == ["n"]

    def test_scenario_lists_are_plain_data(self):
        import pickle

        for scenarios in (runners.fig5_scenarios(), runners.runtime_scenarios(),
                          runners.busywait_scenarios(), runners.security_scenarios(),
                          runners.verification_scenarios(), runners.fig6_scenarios()):
            clone = pickle.loads(pickle.dumps(scenarios))
            assert clone == scenarios
