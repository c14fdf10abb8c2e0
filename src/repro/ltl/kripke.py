"""Kripke structures: the state-transition models fed to the model checker.

A :class:`KripkeStructure` is a finite set of states, each labelled with
the set of atomic propositions that hold in it, plus a total transition
relation and a set of initial states.  The monitor models in
:mod:`repro.ltl.properties` are built by exhaustively composing the
monitor FSM logic with a nondeterministic environment (every combination
of the input atoms), which is exactly what an RTL model checker such as
NuSMV does symbolically.

Internally every state is numbered in the order it is first added, and
the transition relation is kept as successor sets of those integer ids.
Each atom the structure has seen gets one bit of a per-model atom table
(:attr:`KripkeStructure.atom_bits`), and each state id gets a *label
mask* -- the OR of the bits of its true atoms (:attr:`label_masks`), the
``atomicPropositions`` labelling of a classic labelled transition
system.  :mod:`repro.ltl.model_checker` works on those ids and masks
only; :class:`KripkeState` values appear at the public boundary
(construction, queries and counterexamples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple


@dataclass(frozen=True)
class KripkeState:
    """One state: an immutable assignment of atoms to booleans.

    Identity is the assignment alone (the set of ``(atom, value)``
    pairs, order-independent).
    """

    assignment: FrozenSet[Tuple[str, bool]]
    _values: Dict[str, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_values", dict(self.assignment))

    @staticmethod
    def from_dict(values: Mapping[str, bool]) -> "KripkeState":
        """Build a state from an atom dictionary."""
        return KripkeState(_assignment(values))

    def as_dict(self) -> Dict[str, bool]:
        """Return the assignment as a plain dictionary."""
        return dict(self._values)

    def value(self, atom: str) -> bool:
        """Return the value of *atom* (missing atoms are false)."""
        return self._values.get(atom, False)

    def __str__(self):
        true_atoms = sorted(name for name, value in self.assignment if value)
        return "{%s}" % ", ".join(true_atoms)


def _assignment(values: Mapping[str, bool]) -> FrozenSet[Tuple[str, bool]]:
    return frozenset(zip(values.keys(), map(bool, values.values())))


class KripkeStructure:
    """A finite transition system with labelled states."""

    def __init__(self):
        self._ids: Dict[FrozenSet[Tuple[str, bool]], int] = {}
        self._states: List[KripkeState] = []
        self._successors: List[Set[int]] = []
        self._initial: Set[int] = set()
        #: Atom name -> its bit in the label masks.
        self.atom_bits: Dict[str, int] = {}
        #: State id -> OR of the bits of the atoms true in that state.
        self.label_masks: List[int] = []
        self._reachable: Optional[List[int]] = None

    # ------------------------------------------------------------ construction

    def _intern(self, assignment, state=None) -> int:
        """The id of the state with *assignment*, numbering it if new."""
        state_id = self._ids.get(assignment)
        if state_id is not None:
            return state_id
        state_id = len(self._states)
        self._ids[assignment] = state_id
        self._states.append(state if state is not None else KripkeState(assignment))
        self._successors.append(set())
        mask = 0
        for name, value in assignment:
            bit = self.atom_bits.get(name)
            if bit is None:
                bit = self.atom_bits[name] = 1 << len(self.atom_bits)
            if value:
                mask |= bit
        self.label_masks.append(mask)
        self._reachable = None
        return state_id

    def add_state(self, state: KripkeState, initial=False):
        """Add a state (idempotent); optionally mark it initial."""
        state_id = self._intern(state.assignment, state)
        if initial and state_id not in self._initial:
            self._initial.add(state_id)
            self._reachable = None
        return state

    def add_transition(self, source: KripkeState, target: KripkeState):
        """Add a transition; both states are added if missing."""
        targets = self._successors[self._intern(source.assignment, source)]
        target_id = self._intern(target.assignment, target)
        if target_id not in targets:
            targets.add(target_id)
            self._reachable = None

    @classmethod
    def build(cls, initial_states: Iterable[Mapping[str, bool]],
              successor_function: Callable[[Mapping[str, bool]], Iterable[Mapping[str, bool]]],
              max_states=100000) -> "KripkeStructure":
        """Explore a model from *initial_states* using *successor_function*.

        The successor function maps a state dictionary to an iterable of
        successor state dictionaries; exploration is a depth-first
        closure bounded by *max_states*.
        """
        structure = cls()
        ids, states, successors = structure._ids, structure._states, structure._successors
        frontier: List[int] = []
        for values in initial_states:
            state_id = structure._intern(_assignment(values))
            structure._initial.add(state_id)
            frontier.append(state_id)
        while frontier:
            if len(states) > max_states:
                raise RuntimeError("state-space exploration exceeded %d states" % max_states)
            state_id = frontier.pop()
            targets = successors[state_id]
            for successor_values in successor_function(states[state_id].as_dict()):
                # The raw pairs equal the normalised assignment whenever
                # the values already are booleans (the common case), so
                # normalise only on a miss.
                successor_id = ids.get(frozenset(successor_values.items()))
                if successor_id is None:
                    assignment = _assignment(successor_values)
                    successor_id = ids.get(assignment)
                    if successor_id is None:
                        # First sighting: the state is new, hence unexplored.
                        successor_id = structure._intern(assignment)
                        frontier.append(successor_id)
                targets.add(successor_id)
        return structure

    # ------------------------------------------------------------ queries

    @property
    def states(self) -> Set[KripkeState]:
        """All states."""
        return set(self._states)

    @property
    def initial_states(self) -> Set[KripkeState]:
        """The initial states."""
        return {self._states[state_id] for state_id in self._initial}

    def successors(self, state: KripkeState) -> Set[KripkeState]:
        """The successor set of *state*."""
        state_id = self._ids.get(state.assignment)
        if state_id is None:
            return set()
        return {self._states[target] for target in self._successors[state_id]}

    def state_count(self):
        """Number of states."""
        return len(self._states)

    def transition_count(self):
        """Number of transitions."""
        return sum(len(targets) for targets in self._successors)

    def reachable_states(self) -> Set[KripkeState]:
        """States reachable from the initial set."""
        return {self._states[state_id] for state_id in self.reachable_ids()}

    def is_total(self):
        """``True`` if every reachable state has at least one successor."""
        return all(self._successors[state_id] for state_id in self.reachable_ids())

    # ------------------------------------------------------------ id level

    def state(self, state_id: int) -> KripkeState:
        """The state numbered *state_id*."""
        return self._states[state_id]

    def successor_ids(self, state_id: int) -> Set[int]:
        """The successor ids of state *state_id* (do not mutate)."""
        return self._successors[state_id]

    def reachable_ids(self) -> List[int]:
        """Ids of the states reachable from the initial set, ascending.

        Computed once and cached until the structure changes.
        """
        if self._reachable is None:
            frontier = list(self._initial)
            reachable = set(frontier)
            while frontier:
                for successor in self._successors[frontier.pop()]:
                    if successor not in reachable:
                        reachable.add(successor)
                        frontier.append(successor)
            self._reachable = sorted(reachable)
        return self._reachable
