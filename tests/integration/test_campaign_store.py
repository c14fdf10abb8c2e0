"""Integration tests for incremental campaigns and streaming completion.

The acceptance bar for the result store: a warm re-run of an unchanged
sweep executes **zero** scenarios and its rows are byte-identical to
the recomputed ones; concurrent campaigns can share one store directory
without torn reads or leftover temp files.  For streaming,
:meth:`CampaignRunner.run_iter` must yield results as they finish --
on the process backend a fast scenario's result arrives while a slow
one is still executing -- while the generator's return value stays
spec-ordered.
"""

import json
import multiprocessing
import threading

import pytest

from repro.experiments import runners
from repro.sim import (
    CampaignRunner,
    ResultStore,
    ScenarioSpec,
    FirmwareRef,
    StopSpec,
)
from repro.sim.scenario import EPOCH_ENV_VAR


def gallery():
    return runners.security_scenarios()


def comparable(result):
    """Everything that must match between cached and recomputed rows."""
    return (result.name, result.kind, result.ok, result.error,
            result.observations, result.meta, result.expected)


class TestWarmRerun:
    def test_warm_rerun_executes_nothing_and_rows_match(self, tmp_path):
        cold_runner = CampaignRunner(store=tmp_path)
        cold = cold_runner.run(gallery())
        assert cold.all_ok()
        assert cold.store_hits == 0
        assert cold.store_misses == len(cold)
        assert all(not result.cached for result in cold)

        warm_runner = CampaignRunner(store=tmp_path)
        warm = warm_runner.run(gallery())
        assert warm.all_ok()
        assert warm.store_hits == len(warm)
        assert warm.store_misses == 0
        assert all(result.cached for result in warm)
        # The store handle confirms: every lookup hit, nothing written.
        assert warm_runner.store.stats()["writes"] == 0

        # Differential: cached rows byte-identical to recomputed ones.
        assert [comparable(r) for r in warm] == [comparable(r) for r in cold]
        assert json.dumps(warm.rows(), sort_keys=True) \
            == json.dumps(cold.rows(), sort_keys=True)

    def test_cached_rows_match_a_storeless_run(self, tmp_path):
        baseline = CampaignRunner().run(gallery())
        CampaignRunner(store=tmp_path).run(gallery())
        warm = CampaignRunner(store=tmp_path).run(gallery())
        assert [comparable(r) for r in warm] \
            == [comparable(r) for r in baseline]
        assert json.dumps(warm.rows(), sort_keys=True) \
            == json.dumps(baseline.rows(), sort_keys=True)

    def test_spec_change_invalidates_only_that_spec(self, tmp_path):
        specs = gallery()
        CampaignRunner(store=tmp_path).run(specs)
        import dataclasses

        changed = list(specs)
        changed[0] = dataclasses.replace(changed[0],
                                         name=changed[0].name + "-v2")
        outcome = CampaignRunner(store=tmp_path).run(changed)
        assert outcome.store_misses == 1
        assert outcome.store_hits == len(specs) - 1
        assert not outcome[0].cached
        assert all(result.cached for result in outcome[1:])

    def test_code_epoch_bump_forces_a_cold_rerun(self, tmp_path, monkeypatch):
        CampaignRunner(store=tmp_path).run(gallery())
        monkeypatch.setenv(EPOCH_ENV_VAR, "test-epoch-bump")
        outcome = CampaignRunner(store=tmp_path).run(gallery())
        assert outcome.store_hits == 0
        assert outcome.store_misses == len(outcome)

    def test_job_spec_fingerprint_folds_ambient_backends(self, monkeypatch):
        # Job bodies are opaque callables: the process-wide crypto
        # selection can steer what they compute, so it must perturb a
        # job spec's identity (declarative ltl specs stay pinned).
        from repro.crypto.backend import ENV_VAR as CRYPTO_ENV_VAR

        job = ScenarioSpec(name="fig6", kind="job", job="figure6")
        ltl = ScenarioSpec(name="prop", kind="ltl",
                           ltl_property="vrased-key-no-dma")
        monkeypatch.delenv(CRYPTO_ENV_VAR, raising=False)
        job_base, ltl_base = job.fingerprint(), ltl.fingerprint()

        monkeypatch.setenv(CRYPTO_ENV_VAR, "pure")
        assert job.fingerprint() != job_base
        assert ltl.fingerprint() == ltl_base
        monkeypatch.delenv(CRYPTO_ENV_VAR)
        assert job.fingerprint() == job_base

    def test_no_reuse_recomputes_but_refreshes_the_store(self, tmp_path):
        CampaignRunner(store=tmp_path).run(gallery())
        runner = CampaignRunner(store=tmp_path, reuse=False)
        outcome = runner.run(gallery())
        assert outcome.store_hits == 0
        assert outcome.store_misses == len(outcome)
        assert all(not result.cached for result in outcome)
        assert runner.store.stats()["writes"] == len(outcome)
        # The refreshed store still serves the next warm run.
        warm = CampaignRunner(store=tmp_path).run(gallery())
        assert warm.store_hits == len(warm)

    def test_path_like_store_builds_a_result_store(self, tmp_path):
        runner = CampaignRunner(store=str(tmp_path / "nested" / "dir"))
        assert isinstance(runner.store, ResultStore)
        assert runner.store.root.is_dir()

    def test_errored_scenarios_are_retried_not_served(self, tmp_path):
        specs = [ScenarioSpec(name="broken",
                              firmware=FirmwareRef.of("no-such-firmware"))]
        first = CampaignRunner(store=tmp_path).run(specs)
        assert not first.all_ok()
        # The crash was not cached: the re-run executes again.
        second = CampaignRunner(store=tmp_path).run(specs)
        assert second.store_hits == 0 and second.store_misses == 1


def _campaign_into_store(store_dir, barrier, queue):
    barrier.wait()  # maximise overlap between the racing campaigns
    outcome = CampaignRunner(store=store_dir).run(
        runners.security_scenarios())
    queue.put((outcome.all_ok(),
               [ (r.name, r.ok, r.observations) for r in outcome ]))


class TestConcurrentStores:
    def test_two_processes_share_a_store_directory(self, tmp_path):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            pytest.skip("fork start method unavailable")
        barrier = context.Barrier(2)
        queue = context.Queue()
        workers = [
            context.Process(target=_campaign_into_store,
                            args=(str(tmp_path), barrier, queue))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        payloads = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        assert all(ok for ok, _rows in payloads)
        assert payloads[0][1] == payloads[1][1]  # identical rows
        # The racing writers left a clean store: one complete entry per
        # spec, no temp files, every entry valid JSON.
        store = ResultStore(tmp_path)
        assert len(store) == len(runners.security_scenarios())
        assert not list(tmp_path.rglob("*.tmp"))
        for path in tmp_path.rglob("??/*.json"):
            json.loads(path.read_text())

    def test_put_get_torture_on_one_fingerprint(self, tmp_path):
        from repro.sim.runner import ScenarioResult

        store_handles = [ResultStore(tmp_path) for _ in range(4)]
        fingerprint = "ab" + "0" * 62
        reference = ScenarioResult(
            name="torture", kind="pox",
            observations={"steps": 7}, ok=True, elapsed_seconds=0.1)
        errors = []

        def hammer(store):
            try:
                for _ in range(50):
                    store.put(fingerprint, reference)
                    loaded = store.get(fingerprint)
                    if loaded is not None:
                        assert loaded.name == "torture"
                        assert loaded.observations == {"steps": 7}
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(store,))
                   for store in store_handles]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not list(tmp_path.rglob("*.tmp"))
        json.loads(store_handles[0].path_for(fingerprint).read_text())


def streaming_specs():
    """One deliberately slow scenario FIRST, then fast ones: streaming
    must surface the fast results while the slow one still executes."""
    slow = ScenarioSpec(
        name="slow-blinker",
        firmware=FirmwareRef.of("blinker"),
        mode="run",
        stop=StopSpec("steps", 600_000),
        max_steps=700_000,
        config_overrides={"trace_enabled": False},
    )
    fast = [
        ScenarioSpec(name="ltl-fast-%d" % index, kind="ltl",
                     ltl_property="vrased-key-no-dma",
                     expect={"holds": True})
        for index in range(4)
    ]
    return [slow] + fast


class TestStreaming:
    def test_process_backend_yields_before_the_slow_spec_finishes(self):
        specs = streaming_specs()
        runner = CampaignRunner(backend="process", jobs=2)
        iterator = runner.run_iter(specs)
        first = next(iterator)
        # The slow spec was dispatched first; a streaming runner hands
        # us a fast result while it is still executing.  An
        # order-preserving (non-streaming) implementation would block
        # on the slow spec and yield it first.
        assert first.name != "slow-blinker"
        names = [first.name]
        while True:
            try:
                names.append(next(iterator).name)
            except StopIteration as finished:
                outcome = finished.value
                break
        assert sorted(names) == sorted(spec.name for spec in specs)
        # The final result is spec-ordered regardless of arrival order.
        assert [r.name for r in outcome] == [spec.name for spec in specs]
        assert outcome.all_ok(), [f.failure_summary()
                                  for f in outcome.failures()]

    def test_run_iter_with_store_yields_hits_first(self, tmp_path):
        specs = gallery()
        CampaignRunner(store=tmp_path).run(specs)
        iterator = CampaignRunner(store=tmp_path).run_iter(specs)
        yielded = []
        while True:
            try:
                yielded.append(next(iterator))
            except StopIteration as finished:
                outcome = finished.value
                break
        assert len(yielded) == len(specs)
        assert all(result.cached for result in yielded)
        assert outcome.store_hits == len(specs)

    def test_on_result_hook_sees_every_completion(self, tmp_path):
        specs = gallery()
        seen = []
        cold = CampaignRunner(store=tmp_path,
                              on_result=lambda r: seen.append(r.cached))
        cold.run(specs)
        warm = CampaignRunner(store=tmp_path,
                              on_result=lambda r: seen.append(r.cached))
        warm.run(specs)
        assert seen == [False] * len(specs) + [True] * len(specs)

    def test_serial_run_iter_matches_run(self):
        specs = gallery()[:4]
        iterator = CampaignRunner().run_iter(specs)
        streamed = []
        while True:
            try:
                streamed.append(next(iterator))
            except StopIteration as finished:
                outcome = finished.value
                break
        assert [comparable(r) for r in streamed] \
            == [comparable(r) for r in outcome]
        assert [r.name for r in outcome] == [spec.name for spec in specs]

    def test_remote_backend_streams_and_stays_spec_ordered(self):
        specs = gallery()[:5]
        iterator = CampaignRunner(backend="remote", jobs=2).run_iter(specs)
        count = 0
        while True:
            try:
                next(iterator)
                count += 1
            except StopIteration as finished:
                outcome = finished.value
                break
        assert count == len(specs)
        assert [r.name for r in outcome] == [spec.name for spec in specs]
        assert outcome.all_ok()
