"""Integration tests for the telemetry spine across real process seams.

The satellites pinned here:

* spans emitted by remote campaign workers cross the real TCP job
  socket as wire frames and reassemble dispatcher-side into one tree
  rooted at the campaign span;
* turning ``--telemetry`` on changes nothing about the science: the
  exported campaign rows are byte-identical with and without it;
* the acceptance snapshot: after store-backed campaign traffic and a
  2-shard cluster run, **one** registry snapshot carries the engine,
  decode-cache, store, service, campaign and fleet families under
  their consistent dotted names.
"""

import json

from repro.cluster import ShardedVerifierCluster
from repro.experiments.__main__ import main
from repro.net import Fleet
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    set_tracer,
    span_tree,
    use_registry,
)
from repro.sim import CampaignRunner, ScenarioSpec


def ltl_specs(count):
    return [
        ScenarioSpec(name="ltl-%d" % index, kind="ltl",
                     ltl_property="vrased-key-no-dma",
                     expect={"holds": True})
        for index in range(count)
    ]


class TestRemoteSpanReassembly:
    def test_worker_spans_cross_the_socket_and_reattach(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with use_registry(MetricsRegistry()):
                outcome = CampaignRunner(backend="remote",
                                         jobs=2).run(ltl_specs(4))
        finally:
            set_tracer(previous)
        assert outcome.all_ok()
        spans = tracer.drain()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["campaign.run"]) == 1
        assert len(by_name["campaign.scenario"]) == 4
        # The workers' own spans arrived through the result frames.
        assert len(by_name["worker.scenario"]) == 4
        campaign = by_name["campaign.run"][0]
        # One trace: every span, worker-side included, carries the
        # dispatcher's trace id and roots under the campaign span.
        assert all(span.trace_id == campaign.trace_id for span in spans)
        tree = span_tree(spans)
        assert tree[None] == [campaign]
        children = {span.name for span in tree[campaign.span_id]}
        assert children == {"campaign.scenario", "worker.scenario"}
        # More spans than scenarios: the run itself plus both the
        # dispatcher-side and worker-side view of each scenario.
        assert len(spans) > len(outcome)

    def test_worker_span_attributes_identify_the_work(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with use_registry(MetricsRegistry()):
                CampaignRunner(backend="remote", jobs=1).run(ltl_specs(2))
        finally:
            set_tracer(previous)
        worker_spans = [span for span in tracer.drain()
                        if span.name == "worker.scenario"]
        assert {span.attributes["scenario"] for span in worker_spans} \
            == {"ltl-0", "ltl-1"}
        assert all(span.attributes["ok"] for span in worker_spans)
        assert all(span.finished for span in worker_spans)


class TestTelemetryDifferential:
    def test_telemetry_flag_leaves_campaign_rows_byte_identical(
            self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "instrumented.json"
        assert main(["E7", "--json", str(plain)]) == 0
        assert main(["E7", "--json", str(instrumented),
                     "--telemetry", str(tmp_path / "telem")]) == 0
        capsys.readouterr()

        def rows(path):
            return json.dumps([entry["rows"] for entry in
                               json.loads(path.read_text())],
                              sort_keys=True)

        assert rows(plain) == rows(instrumented)
        assert (tmp_path / "telem" / "telemetry.jsonl").exists()


class TestAcceptanceSnapshot:
    def test_one_snapshot_spans_every_layer(self, tmp_path):
        with use_registry(MetricsRegistry()):
            # Store traffic: a cold run populates, a warm run hits.
            specs = ltl_specs(2)
            CampaignRunner(store=tmp_path / "store").run(specs)
            warm = CampaignRunner(store=tmp_path / "store").run(specs)
            assert warm.store_hits == 2
            # A 2-shard cluster run: engine, cache and service gauges
            # all publish through their collectors.
            fleet = Fleet(2, cluster=ShardedVerifierCluster(shards=2))
            report = fleet.run(exchanges_per_device=2)
            assert report.all_accepted()
            snapshot = get_registry().snapshot()

        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        histograms = snapshot["histograms"]
        # store.*: the content-addressed cache's counters.
        assert counters["store.hits"] == 2
        assert counters["store.misses"] >= 2
        # campaign.*: dispatch accounting plus the latency histogram.
        assert counters["campaign.scenarios"] == 4
        assert counters["campaign.cached"] == 2
        assert histograms["campaign.scenario_seconds"]["count"] == 4
        # engine.*: the live interpreter instances.
        assert gauges["engine.interp.instances"] >= 2
        # cache.*: process-wide decode-cache stats.
        assert gauges["cache.entries"] >= 0
        assert "cache.hits" in gauges
        # service.*: the shard verifier services.
        assert gauges["service.instances"] >= 2
        assert gauges["service.challenges"] > 0
        # fleet.*: the folded report and its per-shard slices.
        assert gauges["fleet.exchanges"] == report.exchanges
        assert gauges["fleet.shard-0.shed"] == 0
        assert gauges["fleet.shard-0.alive"] == 1
        assert gauges["fleet.shard_count"] == 2
