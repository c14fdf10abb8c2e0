"""Unit tests for the abstract monitor models and the property suites."""

import pytest

from repro.ltl.kripke import KripkeState
from repro.ltl.model_checker import ModelChecker
from repro.ltl.parser import parse_ltl
from repro.ltl.properties import (
    MODEL_BUILDERS,
    PropertySpec,
    apex_property_suite,
    asap_new_property_suite,
    asap_property_suite,
    build_apex_model,
    build_asap_model,
    build_model,
    vrased_property_suite,
)
from repro.ltl.trace_checker import evaluate_at

#: Reachable transitions checked over the whole 21-property ASAP suite;
#: the benchmark's traced determinism guard compares this total.
ASAP_SUITE_TRANSITIONS = 1321920


class TestSuiteComposition:
    def test_asap_suite_has_21_properties(self):
        assert len(asap_property_suite()) == 21

    def test_vrased_suite_has_10_properties(self):
        assert len(vrased_property_suite()) == 10

    def test_apex_suite_includes_ltl3(self):
        names = [spec.name for spec in apex_property_suite()]
        assert "apex-ltl3-no-interrupts" in names

    def test_asap_suite_drops_ltl3_and_adds_ap1(self):
        names = [spec.name for spec in asap_property_suite()]
        assert "apex-ltl3-no-interrupts" not in names
        assert "asap-ltl4-ivt-immutability" in names

    def test_asap_new_properties_are_three(self):
        assert len(asap_new_property_suite()) == 3

    def test_property_origins(self):
        origins = {spec.origin for spec in asap_property_suite()}
        assert origins == {"vrased", "apex", "asap"}

    def test_every_property_parses(self):
        for spec in asap_property_suite() + apex_property_suite():
            formula = spec.formula
            assert formula.atoms()

    def test_every_property_references_a_known_model(self):
        for spec in asap_property_suite() + apex_property_suite():
            assert spec.model in MODEL_BUILDERS

    def test_names_are_unique(self):
        names = [spec.name for spec in asap_property_suite()]
        assert len(names) == len(set(names))


class TestModels:
    def test_build_model_by_name(self):
        model = build_model("ivt_guard")
        assert model.state_count() > 0
        with pytest.raises(KeyError):
            build_model("missing-model")

    def test_er_flow_models_differ_only_in_ltl3(self, verification_models):
        apex = verification_models["er_flow_apex"]
        asap = verification_models["er_flow_asap"]
        checker_apex = ModelChecker(apex)
        checker_asap = ModelChecker(asap)
        ltl3 = parse_ltl("G (pc_in_er & irq -> !X exec)")
        assert checker_apex.check(ltl3).holds
        assert not checker_asap.check(ltl3).holds

    def test_models_are_total(self, verification_models):
        for name, model in verification_models.items():
            assert model.is_total(), name

    def test_convenience_builders(self):
        assert build_apex_model().state_count() == build_asap_model().state_count()


class TestPropertyVerification:
    def check(self, models, spec):
        return ModelChecker(models[spec.model]).check(spec.formula, name=spec.name)

    def test_all_asap_properties_hold(self, verification_models):
        failures = [
            spec.name
            for spec in asap_property_suite()
            if not self.check(verification_models, spec).holds
        ]
        assert failures == []

    def test_all_apex_properties_hold(self, verification_models):
        failures = [
            spec.name
            for spec in apex_property_suite()
            if not self.check(verification_models, spec).holds
        ]
        assert failures == []

    def test_ltl4_fails_on_a_model_without_the_guard(self, verification_models):
        # Sanity: LTL 4 is not vacuous -- it fails against the plain
        # control-flow model, which knows nothing about the IVT guard.
        spec = PropertySpec(
            "ltl4-on-wrong-model",
            "G (Wen_ivt | DMA_ivt -> !X exec)",
            "er_flow_asap", "asap",
        )
        result = self.check(verification_models, spec)
        assert result.holds  # vacuously true: the atoms never hold there

    def test_exec_rises_only_at_ermin_has_counterexample_potential(self, verification_models):
        # The converse property must fail (EXEC does not rise at every
        # ER_min visit after a violation-free step is not required).
        checker = ModelChecker(verification_models["er_flow_asap"])
        converse = parse_ltl("G (X pc_at_ermin -> X exec)")
        assert checker.check(converse).holds  # the model always sets EXEC at ER_min
        stronger = parse_ltl("G (exec -> pc_in_er)")
        assert not checker.check(stronger).holds


class TestCheckStatistics:
    """The statistics the verification benchmarks report and compare."""

    def test_statistics_cover_every_reachable_transition(self, verification_models):
        models, asap_total = set(), 0
        for in_asap, suite in ((True, asap_property_suite()), (False, apex_property_suite())):
            for spec in suite:
                model = verification_models[spec.model]
                reachable = model.reachable_states()
                transitions = sum(len(model.successors(state)) for state in reachable)
                result = ModelChecker(model).check(spec.formula, name=spec.name)
                assert result.states_explored == len(reachable), spec.name
                assert result.transitions_checked == transitions, spec.name
                models.add(spec.model)
                if in_asap:
                    asap_total += result.transitions_checked
        assert models == set(MODEL_BUILDERS)
        assert asap_total == ASAP_SUITE_TRANSITIONS

    def test_false_vrased_property_has_a_real_counterexample(self, verification_models):
        model = verification_models["vrased"]
        body = parse_ltl("pc_in_swatt -> X pc_in_swatt")
        result = ModelChecker(model).check(parse_ltl("G (%s)" % body), name="leaves-swatt")
        assert not result.holds
        assert result.property_name == "leaves-swatt"
        state, successor = (KripkeState.from_dict(values)
                            for values in result.counterexample)
        assert state in model.reachable_states()
        assert successor in model.successors(state)
        assert not evaluate_at(body, result.counterexample, 0)
        assert 0 < result.transitions_checked <= model.transition_count()
