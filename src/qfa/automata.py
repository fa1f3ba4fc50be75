"""Data model and well-formedness checks for 1-way automata.

Covers quantum automata (complex amplitudes, unitary per symbol), plain
deterministic automata, reversible automata in halt-on-enter form, and
probabilistic reversible automata, plus the conversion chain
RFA -> PRFA -> QFA.

Endmarkers are the reserved symbols "^" (left) and "$" (right); they are
never part of the input alphabet.  Automata are treated as immutable after
construction and all operations here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg

LEFT_END = "^"
RIGHT_END = "$"

END_OF_WORD = "end-of-word"
HALT_ON_ENTER = "halt-on-enter"


@dataclass(frozen=True)
class QuantumAutomaton:
    """A 1-way quantum finite automaton.

    ``unitaries`` maps every working-alphabet symbol (input symbols plus both
    endmarkers) to a unitary; values are dense complex matrices or structured
    operators from :mod:`qfa.linalg`.  ``initial`` is a unit-norm complex
    state vector, not necessarily a basis state.
    """

    states: tuple
    alphabet: tuple
    accepting: frozenset
    rejecting: frozenset
    initial: np.ndarray
    unitaries: dict

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def non_halting(self) -> frozenset:
        return frozenset(range(self.dim)) - self.accepting - self.rejecting

    def state_index(self, name: str) -> int:
        return self.states.index(name)

    def working_symbols(self):
        return tuple(self.alphabet) + (LEFT_END, RIGHT_END)


@dataclass(frozen=True)
class ClassicalAutomaton:
    """Deterministic automaton, either a plain DFA or a halt-on-enter RFA.

    In ``end-of-word`` mode acceptance is decided by the final state and
    endmarkers play no role.  In ``halt-on-enter`` mode the automaton reads
    ^ word $ and halts as soon as it enters an accepting or rejecting state;
    halting states have no outgoing transitions.
    """

    states: tuple
    alphabet: tuple
    start: int
    accepting: frozenset
    rejecting: frozenset = frozenset()
    transitions: dict = field(default_factory=dict)
    halting_mode: str = END_OF_WORD

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def halting(self) -> frozenset:
        if self.halting_mode == HALT_ON_ENTER:
            return self.accepting | self.rejecting
        return frozenset()

    def state_index(self, name: str) -> int:
        return self.states.index(name)


@dataclass(frozen=True)
class ProbabilisticAutomaton:
    """Probabilistic reversible automaton (halt-on-enter semantics).

    ``transitions[(state, symbol)]`` is a list of (target, probability)
    pairs summing to 1.  Reversibility: for every (target, symbol) at most
    one source state reaches it with positive probability.
    """

    states: tuple
    alphabet: tuple
    initial_distribution: tuple
    accepting: frozenset
    rejecting: frozenset
    transitions: dict

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def halting(self) -> frozenset:
        return self.accepting | self.rejecting


@dataclass(frozen=True)
class RunOutcome:
    """Accept/reject/never-halt probabilities with the per-step halting trace."""

    p_acc: float
    p_rej: float
    p_non: float
    trace: tuple

    def distribution(self) -> linalg.OutcomeDistribution:
        return linalg.OutcomeDistribution(self.p_acc, self.p_rej, self.p_non)


def make_qfa(
    states,
    alphabet,
    accepting,
    rejecting,
    initial,
    partial_unitaries,
    tol: float = linalg.DEFAULT_TOL,
) -> QuantumAutomaton:
    """Build a QFA from partially specified transition rows.

    ``partial_unitaries`` maps symbols to either a complete matrix/operator
    or a dict {state name: image row}.  Missing rows are filled by canonical
    orthonormal completion; a missing left-endmarker matrix becomes the
    identity.  Symbols may be omitted entirely, which also yields identity.
    """
    states = tuple(states)
    alphabet = tuple(alphabet)
    n = len(states)
    index = {name: i for i, name in enumerate(states)}
    if len(index) != n:
        raise ValueError("duplicate state names")

    def resolve(spec):
        if isinstance(spec, dict):
            partial = np.zeros((n, n), dtype=complex)
            rows = set()
            for name, row in spec.items():
                i = index[name]
                partial[i] = linalg.as_state_vector(row)
                rows.add(i)
            return linalg.complete_unitary(partial, rows, tol)
        if isinstance(spec, np.ndarray):
            return linalg.as_matrix(spec)
        return spec  # structured operator

    unitaries = {}
    for sym in tuple(alphabet) + (LEFT_END, RIGHT_END):
        if sym in partial_unitaries:
            unitaries[sym] = resolve(partial_unitaries[sym])
        else:
            unitaries[sym] = np.eye(n, dtype=complex)
    extra = set(partial_unitaries) - set(unitaries)
    if extra:
        raise ValueError(f"unitaries given for symbols outside the working alphabet: {sorted(extra)}")

    init = linalg.as_state_vector(initial)
    if init.shape[0] != n:
        raise ValueError("initial vector dimension does not match state count")
    return QuantumAutomaton(
        states=states,
        alphabet=alphabet,
        accepting=frozenset(_to_indices(accepting, index)),
        rejecting=frozenset(_to_indices(rejecting, index)),
        initial=init,
        unitaries=unitaries,
    )


def _to_indices(items, index):
    out = []
    for item in items:
        out.append(index[item] if isinstance(item, str) else int(item))
    return out


def validate(q: QuantumAutomaton, tol: float = linalg.DEFAULT_TOL) -> list:
    """Return a list of invariant violations (empty when the QFA is well formed)."""
    problems = []
    n = q.dim
    overlap = q.accepting & q.rejecting
    if overlap:
        names = sorted(q.states[i] for i in overlap)
        problems.append(f"accepting/rejecting overlap on states {names}")
    for s in q.accepting | q.rejecting:
        if not 0 <= s < n:
            problems.append(f"halting state index {s} out of range")
    if q.initial.shape[0] != n:
        problems.append("initial vector dimension mismatch")
    else:
        if not np.all(np.isfinite(q.initial.view(float))):
            problems.append("initial vector has non-finite amplitudes")
        else:
            norm_dev = abs(linalg.norm_squared(q.initial) - 1.0)
            if norm_dev > tol:
                problems.append(f"initial vector norm deviates by {norm_dev:.3e}")
    for sym in q.working_symbols():
        if sym not in q.unitaries:
            problems.append(f"symbol {sym!r}: no transition matrix")
            continue
        m = q.unitaries[sym]
        if linalg.operator_dim(m) != n:
            problems.append(f"symbol {sym!r}: matrix dimension {linalg.operator_dim(m)} != {n}")
            continue
        defect = linalg.unitarity_defect(m)
        if not defect <= tol:
            problems.append(f"symbol {sym!r}: unitarity deviation {defect:.3e}")
    return problems


def validate_classical(c: ClassicalAutomaton) -> list:
    """Invariant report for deterministic automata."""
    problems = []
    n = c.n_states
    if not 0 <= c.start < n:
        problems.append("start state out of range")
    overlap = c.accepting & c.rejecting
    if overlap:
        problems.append(f"accepting/rejecting overlap: {sorted(overlap)}")
    halting = c.halting
    symbols = tuple(c.alphabet)
    if c.halting_mode == HALT_ON_ENTER:
        symbols = symbols + (LEFT_END, RIGHT_END)
    for s in range(n):
        for a in symbols:
            has = (s, a) in c.transitions
            if s in halting:
                if has:
                    problems.append(f"halting state {c.states[s]} has outgoing transition on {a!r}")
            elif not has:
                problems.append(f"missing transition from {c.states[s]} on {a!r}")
    for (s, a), t in c.transitions.items():
        if not 0 <= t < n:
            problems.append(f"transition from {c.states[s]} on {a!r} targets invalid state {t}")
    return problems


def validate_prfa(p: ProbabilisticAutomaton, tol: float = 1e-12) -> list:
    """Invariant report for PRFAs.

    A missing (state, symbol) entry of a non-halting state is an implicit
    self-loop and counts in the reversibility check; halting states have no
    outgoing edges.
    """
    problems = []
    n = p.n_states
    total = 0.0
    for _, prob in p.initial_distribution:
        if prob < -tol:
            problems.append("negative initial probability")
        total += prob
    if abs(total - 1.0) > tol:
        problems.append(f"initial distribution sums to {total!r}")
    for (s, a), edges in p.transitions.items():
        if s in p.halting:
            problems.append(f"halting state {p.states[s]} has outgoing edges on {a!r}")
        if any(not 0 <= t < n for t, _ in edges):
            problems.append(f"edge out of ({p.states[s]}, {a!r}) targets an invalid state")
            continue
        mass = sum(prob for _, prob in edges)
        if abs(mass - 1.0) > tol:
            problems.append(
                f"outgoing probabilities from ({p.states[s]}, {a!r}) sum to {mass!r}"
            )
        if any(prob < -tol for _, prob in edges):
            problems.append(f"negative probability out of ({p.states[s]}, {a!r})")
    seen = {}
    for (s, a), edges in sorted(_explicit_transitions(p).items()):
        for t, prob in edges:
            if prob <= 0:
                continue
            key = (t, a)
            if key in seen and seen[key] != s:
                problems.append(
                    f"reversibility violated: states {p.states[seen[key]]} and "
                    f"{p.states[s]} both reach {p.states[t]} on {a!r}"
                )
            seen[key] = s
    return problems


def _explicit_transitions(p: ProbabilisticAutomaton) -> dict:
    """The transitions with every implicit self-loop of a non-halting state spelled out."""
    out = dict(p.transitions)
    for sym in tuple(p.alphabet) + (LEFT_END, RIGHT_END):
        for s in range(p.n_states):
            if s not in p.halting:
                out.setdefault((s, sym), [(s, 1.0)])
    return out


def is_reversible(c: ClassicalAutomaton):
    """Check that every (state, symbol) has at most one predecessor.

    Returns (flag, tuples); each tuple is (q1, q2, q, a) naming two distinct
    states that both move to q on a.
    """
    predecessors = {}
    for (s, a), t in c.transitions.items():
        predecessors.setdefault((t, a), []).append(s)
    tuples = []
    for (t, a), sources in sorted(predecessors.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        sources = sorted(sources)
        if len(sources) > 1:
            for i in range(len(sources)):
                for j in range(i + 1, len(sources)):
                    tuples.append(
                        (c.states[sources[i]], c.states[sources[j]], c.states[t], a)
                    )
    return (not tuples), tuples


def rfa_to_prfa(c: ClassicalAutomaton) -> ProbabilisticAutomaton:
    """Embed a reversible halt-on-enter automaton as a PRFA with unit edges."""
    if c.halting_mode != HALT_ON_ENTER:
        raise ValueError("rfa_to_prfa expects a halt-on-enter automaton")
    flag, tuples = is_reversible(c)
    if not flag:
        raise ValueError(f"automaton is not reversible, e.g. {tuples[0]}")
    transitions = {key: [(t, 1.0)] for key, t in c.transitions.items()}
    return ProbabilisticAutomaton(
        states=c.states,
        alphabet=c.alphabet,
        initial_distribution=((c.start, 1.0),),
        accepting=c.accepting,
        rejecting=c.rejecting,
        transitions=transitions,
    )


def prfa_to_qfa(p: ProbabilisticAutomaton, tol: float = linalg.DEFAULT_TOL) -> QuantumAutomaton:
    """Square-root embedding of a PRFA into a QFA.

    Each edge probability becomes an amplitude equal to its square root and
    the initial distribution becomes the corresponding superposition.  The
    PRFA reversibility invariant makes the specified rows orthonormal, so
    each per-symbol matrix extends to a unitary; outcome probabilities then
    agree with the PRFA on every word.
    """
    problems = validate_prfa(p)
    if problems:
        raise ValueError("invalid PRFA: " + "; ".join(problems))
    n = p.n_states
    # halting rows stay unspecified: rows entering a halting state already span it
    transitions = _explicit_transitions(p)
    unitaries = {}
    for sym in tuple(p.alphabet) + (LEFT_END, RIGHT_END):
        partial = np.zeros((n, n), dtype=complex)
        rows = set()
        for s in range(n):
            if (s, sym) not in transitions:
                continue
            for t, prob in transitions[(s, sym)]:
                partial[s, t] = np.sqrt(prob)
            rows.add(s)
        if rows:
            try:
                unitaries[sym] = linalg.complete_unitary(partial, rows, tol)
            except linalg.NotCompletableError as exc:
                raise ValueError(
                    f"PRFA rows for symbol {sym!r} are not orthonormal: {exc}"
                ) from exc
        else:
            unitaries[sym] = np.eye(n, dtype=complex)
    initial = np.zeros(n, dtype=complex)
    for s, prob in p.initial_distribution:
        initial[s] = np.sqrt(prob)
    return QuantumAutomaton(
        states=p.states,
        alphabet=p.alphabet,
        accepting=p.accepting,
        rejecting=p.rejecting,
        initial=initial,
        unitaries=unitaries,
    )


def non_halting_state_count(q: QuantumAutomaton) -> int:
    return len(q.non_halting)
