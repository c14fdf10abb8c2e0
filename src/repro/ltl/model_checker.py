"""Explicit-state safety model checking.

Every property the paper verifies (LTL 1-4 and the VRASED
sub-properties) has the shape ``G psi`` where ``psi`` mixes current-state
atoms with at most one level of ``X`` (next-state atoms).  For that
class, model checking reduces to examining every reachable transition of
the Kripke structure: the property holds iff ``psi`` evaluates to true
over every reachable pair ``(state, successor)``.

:class:`ModelChecker` implements exactly that (plus plain invariants),
reports counterexample paths when a property fails, and records simple
statistics (states, transitions, wall-clock time) that the
verification-cost bench aggregates into the reproduction's analogue of
the paper's "21 properties, ~150 s" result.

The check runs on integers.  :func:`compile_step` translates ``psi``
once into a single Python function ``ok(cur_mask, next_mask)`` over the
model's label masks (see :mod:`repro.ltl.kripke`): an atom becomes a
test of its bit in ``cur_mask``, or in ``next_mask`` under ``X``.  The
checker then walks the reachable id pairs and calls ``ok`` once per
transition.  A state without successors is judged by a second
compilation in which ``X`` reads as true (the weak next of
:mod:`repro.ltl.trace_checker`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping

from repro.ltl.ast import (
    And,
    Atom,
    FalseFormula,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    TrueFormula,
)
from repro.ltl.kripke import KripkeStructure


class UnsupportedFormulaError(Exception):
    """Raised for formulas outside the supported safety fragment."""


@dataclass
class CheckResult:
    """Result of model checking one property."""

    holds: bool
    property_name: str = ""
    states_explored: int = 0
    transitions_checked: int = 0
    elapsed_seconds: float = 0.0
    counterexample: List[Dict[str, bool]] = field(default_factory=list)

    def __bool__(self):
        return self.holds


def compile_step(body: Formula, atom_bits: Mapping[str, int],
                 weak_next=False) -> Callable[[int, int], bool]:
    """Compile a propositional-plus-one-X *body* into ``ok(cur, nxt)``.

    *cur* and *nxt* are label masks over *atom_bits*; atoms missing from
    the table are false.  With *weak_next* every ``X`` subformula is
    true (the judgement for a state without successors).  Subformulas
    outside the fragment compile to a call that raises
    :class:`UnsupportedFormulaError` when -- and only if -- evaluation
    reaches them.
    """
    errors: List[str] = []

    def unsupported(message):
        errors.append(message)
        return "_unsupported(%d)" % (len(errors) - 1)

    def emit(formula, mask):
        if isinstance(formula, TrueFormula):
            return "True"
        if isinstance(formula, FalseFormula):
            return "False"
        if isinstance(formula, Atom):
            bit = atom_bits.get(formula.name)
            return "False" if bit is None else "(%s & %d)" % (mask, bit)
        if isinstance(formula, Not):
            return "(not %s)" % emit(formula.operand, mask)
        if isinstance(formula, And):
            return "(%s and %s)" % (emit(formula.left, mask), emit(formula.right, mask))
        if isinstance(formula, Or):
            return "(%s or %s)" % (emit(formula.left, mask), emit(formula.right, mask))
        if isinstance(formula, Implies):
            return "(not %s or %s)" % (emit(formula.left, mask), emit(formula.right, mask))
        if isinstance(formula, Next):
            if weak_next:
                return "True"
            if not formula.operand.is_propositional():
                return unsupported("nested temporal operators under X")
            return emit(formula.operand, "nxt")
        return unsupported("formula %s is outside the supported safety fragment" % formula)

    def raise_unsupported(index):
        raise UnsupportedFormulaError(errors[index])

    # The source holds only integer masks, operators and _unsupported
    # calls: atom names never reach eval.
    source = "lambda cur, nxt: %s" % emit(body, "cur")
    return eval(source, {"_unsupported": raise_unsupported})  # noqa: S307


class ModelChecker:
    """Checks ``G``-shaped safety properties against a Kripke structure."""

    def __init__(self, model: KripkeStructure):
        self.model = model

    def check(self, formula: Formula, name="") -> CheckResult:
        """Model-check one property.

        :raises UnsupportedFormulaError: for formulas outside the
            ``G (propositional + X)`` fragment.
        """
        started = time.perf_counter()
        if isinstance(formula, Globally):
            body = formula.operand
        elif formula.is_propositional():
            # A bare propositional formula is treated as an invariant.
            body = formula
        else:
            raise UnsupportedFormulaError(
                "only G-shaped safety properties are supported, got %s" % formula
            )
        if body.next_depth() > 1:
            raise UnsupportedFormulaError("X nesting deeper than 1 is not supported")

        model = self.model
        ok = compile_step(body, model.atom_bits)
        ok_at_deadlock = None
        masks = model.label_masks
        reachable = model.reachable_ids()
        transitions_checked = 0
        for state_id in reachable:
            current = masks[state_id]
            targets = model.successor_ids(state_id)
            if not targets:
                if ok_at_deadlock is None:
                    ok_at_deadlock = compile_step(body, model.atom_bits, weak_next=True)
                if not ok_at_deadlock(current, 0):
                    return self._failure(name, state_id, None, started,
                                         len(reachable), transitions_checked)
            for target in targets:
                transitions_checked += 1
                if not ok(current, masks[target]):
                    return self._failure(name, state_id, target, started,
                                         len(reachable), transitions_checked)
        return CheckResult(
            holds=True,
            property_name=name,
            states_explored=len(reachable),
            transitions_checked=transitions_checked,
            elapsed_seconds=time.perf_counter() - started,
        )

    def check_suite(self, properties) -> List[CheckResult]:
        """Check a list of ``(name, formula)`` pairs (or PropertySpec-like)."""
        results = []
        for item in properties:
            if hasattr(item, "name") and hasattr(item, "formula"):
                name, formula = item.name, item.formula
            else:
                name, formula = item
            results.append(self.check(formula, name=name))
        return results

    def _failure(self, name, state_id, successor_id, started, states, transitions):
        counterexample = [self.model.state(state_id).as_dict()]
        if successor_id is not None:
            counterexample.append(self.model.state(successor_id).as_dict())
        return CheckResult(
            holds=False,
            property_name=name,
            states_explored=states,
            transitions_checked=transitions,
            elapsed_seconds=time.perf_counter() - started,
            counterexample=counterexample,
        )
