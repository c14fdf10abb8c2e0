"""Property-based tests for memory, assembler sizing and LTL semantics."""

from hypothesis import given, settings, strategies as st

from repro.ltl.ast import (
    And,
    Atom,
    FalseFormula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    TrueFormula,
)
from repro.ltl.kripke import KripkeState, KripkeStructure
from repro.ltl.model_checker import ModelChecker
from repro.ltl.parser import parse_ltl
from repro.ltl.trace_checker import check_trace, evaluate_at, find_violation
from repro.memory.layout import MemoryRegion
from repro.memory.memory import Memory


class TestMemoryProperties:
    @given(st.integers(min_value=0, max_value=0xFFFE),
           st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=200)
    def test_word_write_read_roundtrip(self, address, value):
        memory = Memory()
        memory.write_word(address, value)
        assert memory.peek_word(address) == value

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.binary(min_size=1, max_size=64))
    @settings(max_examples=200)
    def test_load_dump_roundtrip(self, address, data):
        if address + len(data) > 0x10000:
            address = 0x10000 - len(data)
        memory = Memory()
        memory.load_bytes(address, data)
        assert memory.dump(address, len(data)) == data

    @given(st.integers(min_value=0, max_value=0xFFF0),
           st.integers(min_value=0, max_value=0xF))
    @settings(max_examples=200)
    def test_region_contains_is_consistent_with_bounds(self, start, length):
        region = MemoryRegion(start, start + length)
        for address in (start, start + length):
            assert region.contains(address)
        if start > 0:
            assert not region.contains(start - 1)
        if start + length < 0xFFFF:
            assert not region.contains(start + length + 1)

    @given(st.integers(min_value=0, max_value=0xFF00),
           st.integers(min_value=0, max_value=0xFF),
           st.integers(min_value=0, max_value=0xFF00),
           st.integers(min_value=0, max_value=0xFF))
    @settings(max_examples=200)
    def test_overlap_is_symmetric(self, start_a, len_a, start_b, len_b):
        region_a = MemoryRegion(start_a, start_a + len_a)
        region_b = MemoryRegion(start_b, start_b + len_b)
        assert region_a.overlaps(region_b) == region_b.overlaps(region_a)


#: Random finite traces over three atoms.
traces = st.lists(
    st.fixed_dictionaries({
        "p": st.booleans(),
        "q": st.booleans(),
        "r": st.booleans(),
    }),
    min_size=1,
    max_size=12,
)


class TestLtlSemanticsProperties:
    @given(traces)
    @settings(max_examples=200)
    def test_globally_p_iff_no_violation_found(self, trace):
        formula = Globally(Atom("p"))
        holds = check_trace(formula, trace)
        violation = find_violation(formula, trace)
        assert holds == (violation is None)
        if violation is not None:
            assert not trace[violation]["p"]

    @given(traces)
    @settings(max_examples=200)
    def test_double_negation(self, trace):
        assert check_trace(Not(Not(Atom("p"))), trace) == check_trace(Atom("p"), trace)

    @given(traces)
    @settings(max_examples=200)
    def test_implication_equivalence(self, trace):
        implication = Implies(Atom("p"), Atom("q"))
        disjunction = parse_ltl("!p | q")
        assert check_trace(implication, trace) == check_trace(disjunction, trace)

    @given(traces, st.integers(min_value=0, max_value=11))
    @settings(max_examples=200)
    def test_next_shifts_evaluation(self, trace, position):
        if position >= len(trace) - 1:
            return
        assert evaluate_at(Next(Atom("q")), trace, position) == evaluate_at(
            Atom("q"), trace, position + 1
        )

    @given(traces)
    @settings(max_examples=200)
    def test_globally_monotone_in_suffix(self, trace):
        formula = Globally(Atom("p"))
        if check_trace(formula, trace):
            for position in range(len(trace)):
                assert evaluate_at(formula, trace, position)

    @given(traces)
    @settings(max_examples=150)
    def test_parser_and_str_are_inverse_on_suite_shapes(self, trace):
        formula = parse_ltl("G (p & q -> X r)")
        assert parse_ltl(str(formula)) == formula
        # Semantics preserved through the round trip as well.
        assert check_trace(parse_ltl(str(formula)), trace) == check_trace(formula, trace)


# --------------------------------------------------------------------------
# Differential oracle: the compiled model checker against the trace checker
# --------------------------------------------------------------------------

_ATOMS = st.sampled_from(("p", "q", "r"))


def _connectives(children):
    return st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda pair: And(*pair)),
        st.tuples(children, children).map(lambda pair: Or(*pair)),
        st.tuples(children, children).map(lambda pair: Implies(*pair)),
    )


#: Propositional formulas over p/q/r.
propositional = st.recursive(
    st.one_of(_ATOMS.map(Atom), st.just(TrueFormula()), st.just(FalseFormula())),
    _connectives, max_leaves=6,
)

#: Step bodies: propositional formulas with at most one level of X.
step_bodies = st.recursive(
    st.one_of(propositional, propositional.map(Next)), _connectives, max_leaves=8,
)


@st.composite
def kripke_structures(draw):
    """A random structure over p/q/r, plus its states and edges as drawn.

    States may leave atoms out (missing atoms read false), some states
    may have no successors, and some may be unreachable.
    """
    states = draw(st.lists(
        st.dictionaries(_ATOMS, st.booleans()),
        min_size=1, max_size=6,
        unique_by=lambda values: frozenset(values.items()),
    ))
    indices = st.integers(min_value=0, max_value=len(states) - 1)
    initial = draw(st.sets(indices, min_size=1))
    edges = draw(st.sets(st.tuples(indices, indices), max_size=12))
    model = KripkeStructure()
    for index, values in enumerate(states):
        model.add_state(KripkeState.from_dict(values), initial=index in initial)
    for source, target in sorted(edges):
        model.add_transition(KripkeState.from_dict(states[source]),
                             KripkeState.from_dict(states[target]))
    return model, states, initial, edges


def _reachable(initial, edges):
    reachable, frontier = set(initial), list(initial)
    while frontier:
        source = frontier.pop()
        for edge_source, target in edges:
            if edge_source == source and target not in reachable:
                reachable.add(target)
                frontier.append(target)
    return reachable


class TestModelCheckerMatchesTraceSemantics:
    """``ModelChecker.check`` agrees with ``evaluate_at`` on every
    reachable transition (and, with the weak next, on every reachable
    state without successors)."""

    @given(kripke_structures(), step_bodies, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_verdict_statistics_and_counterexample(self, structure, body, wrap):
        model, states, initial, edges = structure
        if not wrap and not body.is_propositional():
            wrap = True  # a bare formula with X is not in the fragment
        result = ModelChecker(model).check(Globally(body) if wrap else body)

        reachable = _reachable(initial, edges)
        reachable_edges = {(s, t) for s, t in edges if s in reachable}
        deadlocks = {s for s in reachable if not any(e[0] == s for e in edges)}
        expected = all(
            evaluate_at(body, [states[s], states[t]], 0) for s, t in reachable_edges
        ) and all(evaluate_at(body, [states[s]], 0) for s in deadlocks)

        assert result.holds == expected
        assert result.states_explored == len(reachable)
        if result.holds:
            assert result.transitions_checked == len(reachable_edges)
            assert result.counterexample == []
            return
        assert result.transitions_checked <= len(reachable_edges)
        witness = [states.index(values) for values in result.counterexample]
        assert witness[0] in reachable
        if len(witness) == 2:
            assert tuple(witness) in edges
        else:
            assert len(witness) == 1 and witness[0] in deadlocks
        assert not evaluate_at(body, result.counterexample, 0)
