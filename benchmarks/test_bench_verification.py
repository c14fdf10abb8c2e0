"""Experiment E6 (paper Section 5, "Verification Cost").

The paper verifies 21 LTL properties with NuSMV in ~150 s / 96 MB on a
desktop CPU.  The reproduction's analogue checks the same-sized property
suite (10 VRASED + 8 shared APEX + 3 new [AP1] properties) with the
in-tree explicit-state model checker over the abstract monitor models
and reports per-property and aggregate statistics.  Absolute times are
incomparable (different checker, different machine); the reproduced
facts are the property count and that every property holds.

:func:`test_verification_transitions_per_second` also records the
suite's throughput in ``BENCH_verify.json`` (gated by
``compare_bench.py --profile verify``): reachable transitions checked
per second for the 21-property suite on prebuilt models (``asap-21``)
and with model construction included (``asap-21-cold``), against the
reference row ``oracle-vrased`` -- the finite-trace semantics
(:func:`~repro.ltl.trace_checker.evaluate_at`) judging the 131,072
``vrased`` transitions of ``vrased-reset-is-sticky`` one by one.

Run with ``pytest benchmarks/test_bench_verification.py --benchmark-only -s``.
"""

import time

import pytest

from repro.ltl.model_checker import ModelChecker
from repro.ltl.properties import (
    MODEL_BUILDERS,
    apex_property_suite,
    asap_property_suite,
)
from repro.ltl.trace_checker import evaluate_at

#: Required ``asap-21`` vs ``oracle-vrased`` transitions/sec ratio: the
#: compiled checker must clearly beat evaluating the reference
#: semantics transition by transition.
REQUIRED_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def models():
    return {name: builder() for name, builder in MODEL_BUILDERS.items()}


def check_suite(suite, models):
    results = []
    for spec in suite:
        checker = ModelChecker(models[spec.model])
        results.append((spec, checker.check(spec.formula, name=spec.name)))
    return results


def test_asap_verification_of_21_properties(benchmark, models, table_printer):
    results = benchmark(check_suite, asap_property_suite(), models)
    rows = [
        {
            "property": spec.name,
            "origin": spec.origin,
            "model": spec.model,
            "holds": result.holds,
            "states": result.states_explored,
            "transitions": result.transitions_checked,
        }
        for spec, result in results
    ]
    table_printer("ASAP verification (paper: 21 LTL properties)", rows)
    total_time = sum(result.elapsed_seconds for _, result in results)
    print("properties: %d, all hold: %s, total check time: %.3f s" % (
        len(results), all(result.holds for _, result in results), total_time))
    assert len(results) == 21
    assert all(result.holds for _, result in results)


def test_model_construction_cost(benchmark, table_printer):
    built = benchmark(lambda: {name: builder() for name, builder in MODEL_BUILDERS.items()})
    rows = [
        {"model": name, "states": model.state_count(),
         "transitions": model.transition_count()}
        for name, model in built.items()
    ]
    table_printer("Abstract monitor models (state spaces)", rows)
    assert all(model.is_total() for model in built.values())


def test_apex_verification_baseline(benchmark, models, table_printer):
    results = benchmark(check_suite, apex_property_suite(), models)
    table_printer("APEX verification baseline", [
        {"properties": len(results),
         "holds": sum(1 for _, result in results if result.holds)},
    ])
    assert all(result.holds for _, result in results)


def _best_seconds(work, rounds=5):
    """Fastest of *rounds* timed calls of *work* (returns its last result)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_verification_transitions_per_second(benchmark, models, table_printer,
                                             bench_json):
    """Transitions/sec of the ASAP suite (warm and cold) and of the oracle."""
    suite = asap_property_suite()

    def cold():
        names = {spec.model for spec in suite}
        return check_suite(suite, {name: MODEL_BUILDERS[name]() for name in names})

    vrased = models["vrased"]
    sticky = next(spec for spec in suite if spec.name == "vrased-reset-is-sticky")
    body = sticky.formula.operand
    pairs = [
        [state.as_dict(), successor.as_dict()]
        for state in vrased.reachable_states()
        for successor in vrased.successors(state)
    ]

    def oracle():
        return sum(1 for pair in pairs if evaluate_at(body, pair, 0))

    warm_seconds, results = _best_seconds(lambda: check_suite(suite, models))
    cold_seconds, cold_results = _best_seconds(cold)
    oracle_seconds, oracle_holding = _best_seconds(oracle)
    transitions = sum(result.transitions_checked for _, result in results)
    assert all(result.holds for _, result in results + cold_results)
    assert oracle_holding == len(pairs) == 131072

    rates = {
        "asap-21": transitions / warm_seconds,
        "asap-21-cold": transitions / cold_seconds,
        "oracle-vrased": len(pairs) / oracle_seconds,
    }
    table_printer("Verification throughput (reachable transitions checked)", [
        {"label": label, "transitions/sec": "%.0f" % rate,
         "vs oracle": "%.1fx" % (rate / rates["oracle-vrased"])}
        for label, rate in rates.items()
    ])
    bench_json("BENCH_verify.json", {
        "benchmark": "verification_transitions_per_second",
        "unit": "transitions/sec",
        "rows": [
            # "label" is the row key the perf gate
            # (compare_bench.py --profile verify) joins rows on.
            {"label": label, "transitions_per_sec": rate,
             "transitions": len(pairs) if label == "oracle-vrased" else transitions}
            for label, rate in rates.items()
        ],
    })
    # Timing statistics for the warm suite check.
    benchmark.pedantic(check_suite, args=(suite, models), rounds=3)

    speedup = rates["asap-21"] / rates["oracle-vrased"]
    assert speedup >= REQUIRED_SPEEDUP, (
        "expected the compiled checker to clear >= %.0fx the trace-semantics "
        "oracle, got %.1fx" % (REQUIRED_SPEEDUP, speedup))
