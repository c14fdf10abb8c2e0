"""Integration tests for the campaign runner and its backends.

The acceptance bar for the scenario-campaign engine: the process
backend must produce row-for-row identical results to the serial
backend, in spec order, with per-scenario failures isolated.
"""

import pytest

from repro.experiments import runners
from repro.sim import (
    CampaignRunner,
    EventSpec,
    FirmwareRef,
    Observe,
    ScenarioSpec,
)


def small_campaign():
    """A mixed campaign touching every spec kind except jobs."""
    specs = list(runners.fig5_scenarios())
    specs.append(ScenarioSpec(name="benign-baseline", kind="attack",
                              expect={"detected": True}))
    specs.append(ScenarioSpec(name="ltl-vrased-key-no-dma", kind="ltl",
                              ltl_property="vrased-key-no-dma",
                              expect={"holds": True}))
    return specs


def comparable(result):
    """Everything that must match across backends (timing excluded)."""
    return (result.name, result.kind, result.ok, result.error,
            result.observations, result.meta)


class TestCampaignRunner:
    @pytest.mark.parametrize("backend", ["threads", "thread"])
    def test_invalid_backend_rejected(self, backend):
        with pytest.raises(ValueError, match="backend"):
            CampaignRunner(backend=backend)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            CampaignRunner(jobs=0)

    def test_serial_results_preserve_spec_order(self):
        specs = small_campaign()
        outcome = CampaignRunner().run(specs)
        assert [result.name for result in outcome] == [spec.name for spec in specs]
        assert outcome.all_ok(), [f.failure_summary() for f in outcome.failures()]

    def test_process_backend_matches_serial_row_for_row(self):
        specs = small_campaign()
        serial = CampaignRunner(backend="serial").run(specs)
        process = CampaignRunner(backend="process", jobs=2).run(specs)
        assert [comparable(r) for r in serial] == [comparable(r) for r in process]
        assert process.backend == "process" and process.jobs == 2

    def test_warm_pool_matches_serial_and_reuses_workers(self):
        from repro.sim import runner as runner_module
        from repro.sim import shutdown_warm_pools

        shutdown_warm_pools()
        specs = small_campaign()
        serial = CampaignRunner(backend="serial").run(specs)
        warm_runner = CampaignRunner(backend="process", jobs=2, warm=True)
        try:
            first = warm_runner.run(specs)
            pool = runner_module._WARM_POOLS.get(2)
            assert pool is not None  # the pool survived the campaign
            second = warm_runner.run(specs)
            assert runner_module._WARM_POOLS.get(2) is pool  # and was reused
            for outcome in (first, second):
                assert [comparable(r) for r in serial] == \
                    [comparable(r) for r in outcome]
        finally:
            shutdown_warm_pools()
        assert not runner_module._WARM_POOLS

    def test_warm_requires_process_backend(self):
        with pytest.raises(ValueError, match="warm"):
            CampaignRunner(backend="serial", warm=True)
        with pytest.raises(ValueError, match="warm"):
            CampaignRunner(backend="remote", warm=True)

    def test_failures_are_isolated_in_warm_backend(self):
        from repro.sim import shutdown_warm_pools

        specs = [
            runners.fig5_scenarios()[0],
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
        ]
        try:
            runner = CampaignRunner(backend="process", jobs=2, warm=True)
            outcome = runner.run(specs)
            assert outcome[0].ok and not outcome[1].ok
            assert "no-such-firmware" in outcome[1].error
        finally:
            shutdown_warm_pools()

    def test_failures_are_isolated_per_scenario(self):
        specs = [
            runners.fig5_scenarios()[0],
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
            ScenarioSpec(name="benign-baseline", kind="attack",
                         expect={"detected": True}),
        ]
        for backend, jobs in (("serial", 1), ("process", 2)):
            outcome = CampaignRunner(backend=backend, jobs=jobs).run(specs)
            assert len(outcome) == 3
            assert outcome[0].ok and outcome[2].ok
            assert not outcome[1].ok
            assert "no-such-firmware" in outcome[1].error
            assert not outcome.all_ok()
            assert [f.name for f in outcome.failures()] == ["broken"]

    def test_campaign_result_accounting(self):
        outcome = CampaignRunner().run(small_campaign()[:2])
        assert len(outcome) == 2
        assert outcome.rows() == [result.row for result in outcome]
        assert outcome.elapsed_seconds > 0
        assert outcome.scenarios_per_second > 0
        assert outcome.store_hits == 0 and outcome.store_misses == 0

    def test_degenerate_throughput_is_zero_not_inf(self):
        from repro.sim import CampaignResult, ScenarioResult

        # An empty or zero-elapsed campaign has no meaningful rate --
        # and float("inf") would poison the strict-JSON bench payloads.
        empty = CampaignRunner().run([])
        assert empty.scenarios_per_second == 0.0
        zero_elapsed = CampaignResult(
            results=[ScenarioResult(name="r", kind="pox")],
            backend="serial", jobs=1, elapsed_seconds=0.0)
        assert zero_elapsed.scenarios_per_second == 0.0


class TestRemoteBackend:
    """``backend="remote"`` ships specs to socket-connected workers and
    must reproduce serial results row-for-row."""

    def test_remote_matches_serial_on_e9_gallery(self):
        # The acceptance bar for the distributed-workers lever: the
        # full E9 attack gallery, spec-ordered and row-identical.
        specs = runners.security_scenarios()
        serial = CampaignRunner(backend="serial").run(specs)
        remote = CampaignRunner(backend="remote", jobs=4).run(specs)
        assert [comparable(r) for r in serial] == [comparable(r) for r in remote]
        assert remote.backend == "remote" and remote.jobs == 4
        assert remote.all_ok(), [f.failure_summary() for f in remote.failures()]

    def test_remote_matches_serial_on_mixed_campaign(self):
        specs = small_campaign()
        serial = CampaignRunner(backend="serial").run(specs)
        remote = CampaignRunner(backend="remote", jobs=2).run(specs)
        assert [comparable(r) for r in serial] == [comparable(r) for r in remote]

    def test_remote_single_worker(self):
        specs = small_campaign()[:2]
        outcome = CampaignRunner(backend="remote", jobs=1).run(specs)
        assert [result.name for result in outcome] == [spec.name for spec in specs]
        assert outcome.all_ok()

    def test_remote_failures_are_isolated(self):
        specs = [
            runners.fig5_scenarios()[0],
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
            ScenarioSpec(name="benign-baseline", kind="attack",
                         expect={"detected": True}),
        ]
        outcome = CampaignRunner(backend="remote", jobs=2).run(specs)
        assert len(outcome) == 3
        assert outcome[0].ok and outcome[2].ok
        assert not outcome[1].ok
        assert "no-such-firmware" in outcome[1].error

    def test_remote_empty_campaign(self):
        outcome = CampaignRunner(backend="remote").run([])
        assert len(outcome) == 0

    def test_dead_worker_assignment_is_recovered(self):
        # A worker that takes an assignment and drops its connection
        # must not strand the campaign: its spec is requeued, and with
        # no workers left the dispatcher finishes inline.
        import asyncio

        from repro.net.remote import _Dispatcher
        from repro.net.transport import loopback_pair

        specs = [
            ScenarioSpec(name="ltl-%d" % index, kind="ltl",
                         ltl_property="vrased-key-no-dma")
            for index in range(3)
        ]

        async def body():
            dispatcher = _Dispatcher(specs)
            client, server_side = loopback_pair()
            handler = asyncio.ensure_future(dispatcher.handle(server_side))
            await client.send({"kind": "ready"})
            assignment = await client.recv()
            assert assignment["kind"] == "scenario"
            await client.close()  # die mid-scenario, two specs still queued
            await handler
            return dispatcher

        dispatcher = asyncio.run(body())
        assert dispatcher.remaining == 0 and dispatcher.done.is_set()
        assert all(result is not None for result in dispatcher.results)
        assert all(result.observations["holds"]
                   for result in dispatcher.results)

    def test_warm_requires_process_not_remote(self):
        with pytest.raises(ValueError, match="warm"):
            CampaignRunner(backend="remote", warm=True)


class TestExperimentBackendDifferential:
    """``--backend process`` must reproduce serial results exactly."""

    def test_all_experiments_identical_serial_vs_process(self):
        serial = runners.run_all_experiments(backend="serial")
        process = runners.run_all_experiments(backend="process", jobs=4)

        def comparable(results):
            return [(r.experiment_id, r.title, r.rows, r.notes, r.succeeded)
                    for r in results]

        assert comparable(serial) == comparable(process)
        assert all(result.succeeded for result in serial)

    def test_run_all_accepts_prebuilt_campaign(self):
        campaign = CampaignRunner(backend="process", jobs=2)
        results = runners.run_all_experiments(
            skip=["E4-E5", "E6", "E8", "E9", "FLEET"], campaign=campaign)
        assert [r.experiment_id for r in results] == ["E1-E3", "E7"]
        assert all(result.succeeded for result in results)


class TestEventSpecKinds:
    def test_write_word_event_is_observed_by_monitor(self):
        # Rewriting an IVT entry mid-execution must clear EXEC: the
        # declarative write_word event goes through write_word_as_cpu,
        # which the ASAP monitor observes like malware-executed MOVs.
        from repro.memory.ivt import IVT_BASE

        spec = ScenarioSpec(
            name="declarative-ivt-write",
            firmware=FirmwareRef.of("syringe_pump"),
            events=(EventSpec("write_word", step=20, args=(IVT_BASE + 4, 0xE004)),),
            observe=(Observe("accepted"), Observe("exec_flag")),
            expect={"accepted": False, "exec_flag": 0},
        )
        outcome = CampaignRunner().run([spec])
        assert outcome.all_ok(), outcome[0].failure_summary()

    def test_dma_events_reproduce_gallery_attack(self):
        from repro.memory.ivt import IVT_BASE

        spec = ScenarioSpec(
            name="declarative-dma-ivt",
            firmware=FirmwareRef.of("syringe_pump"),
            events=(
                EventSpec("dma_configure", args=(0x0200, IVT_BASE + 4, 2)),
                EventSpec("dma_trigger", step=20),
            ),
            observe=(Observe("accepted"),),
            expect={"accepted": False},
        )
        outcome = CampaignRunner().run([spec])
        assert outcome.all_ok(), outcome[0].failure_summary()


class TestFailFast:
    """``fail_fast=True`` aborts dispatch at the first ``ok=False``."""

    def _ltl_specs(self, count):
        return [
            ScenarioSpec(name="ltl-ok-%d" % index, kind="ltl",
                         ltl_property="vrased-key-no-dma",
                         expect={"holds": True})
            for index in range(count)
        ]

    def test_remote_backend_aborts_on_failure(self):
        # The remote dispatcher drains its assigned workers and requeues
        # nothing after the abort: the campaign ends early, aborted, and
        # whatever did complete stays spec-ordered.
        broken = ScenarioSpec(name="broken",
                              firmware=FirmwareRef.of("no-such-firmware"))
        specs = [broken] + self._ltl_specs(6)
        outcome = CampaignRunner(backend="remote", jobs=2,
                                 fail_fast=True).run(specs)
        assert outcome.aborted
        assert not outcome.all_ok()
        names = [result.name for result in outcome]
        assert "broken" in names
        expected_order = [spec.name for spec in specs
                          if spec.name in set(names)]
        assert names == expected_order

    def test_serial_stops_at_first_failure(self):
        specs = self._ltl_specs(1) + [
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
        ] + self._ltl_specs(3)[1:]
        outcome = CampaignRunner(fail_fast=True).run(specs)
        assert outcome.aborted
        assert [result.name for result in outcome] == ["ltl-ok-0", "broken"]
        assert not outcome.all_ok()
        assert [f.name for f in outcome.failures()] == ["broken"]

    def test_serial_clean_run_is_not_aborted(self):
        specs = self._ltl_specs(3)
        outcome = CampaignRunner(fail_fast=True).run(specs)
        assert not outcome.aborted
        assert len(outcome) == len(specs)
        assert outcome.all_ok()

    def test_parallel_backends_abort_and_stay_spec_ordered(self):
        broken = ScenarioSpec(name="broken",
                              firmware=FirmwareRef.of("no-such-firmware"))
        specs = [broken] + self._ltl_specs(6)
        outcome = CampaignRunner(backend="process", jobs=2,
                                 fail_fast=True).run(specs)
        assert outcome.aborted
        assert not outcome.all_ok()
        # Spec order among whatever completed before the abort.
        names = [result.name for result in outcome]
        expected_order = [spec.name for spec in specs
                          if spec.name in set(names)]
        assert names == expected_order
        assert "broken" in names

    def test_streamed_results_stop_after_failure(self):
        specs = self._ltl_specs(1) + [
            ScenarioSpec(name="broken",
                         firmware=FirmwareRef.of("no-such-firmware")),
        ] + self._ltl_specs(2)[1:]
        seen = []
        runner = CampaignRunner(fail_fast=True, on_result=seen.append)
        iterator = runner.run_iter(specs)
        while True:
            try:
                next(iterator)
            except StopIteration as finished:
                outcome = finished.value
                break
        assert [result.name for result in seen] == ["ltl-ok-0", "broken"]
        assert outcome.aborted

    def test_cached_failure_aborts_before_dispatch(self, tmp_path):
        # An expectation mismatch (ok=False, error=None) is cacheable;
        # a fail-fast re-run over the same store must abort on the hit
        # without executing anything.
        failing = ScenarioSpec(name="benign-expected-to-fail", kind="attack",
                               attack="benign-baseline",
                               expect={"detected": False})
        cold = CampaignRunner(store=tmp_path).run([failing])
        assert not cold.all_ok() and cold[0].error is None
        warm = CampaignRunner(store=tmp_path,
                              fail_fast=True).run([failing] + self._ltl_specs(2))
        assert warm.aborted
        assert warm.store_hits == 1
        assert warm.store_misses == 0
        assert [result.name for result in warm] == ["benign-expected-to-fail"]
        assert warm[0].cached
