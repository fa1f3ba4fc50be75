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

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg

LEFT_END = "^"
RIGHT_END = "$"

END_OF_WORD = "end-of-word"
HALT_ON_ENTER = "halt-on-enter"

# probability sums of a PRFA must be within this of 1
_PRFA_TOL = 1e-12


def _check_alphabet(alphabet):
    """Every automaton's input alphabet must leave the endmarkers out and
    name each letter once."""
    for end in (LEFT_END, RIGHT_END):
        if end in alphabet:
            raise ValueError(f"alphabet must not contain the endmarker {end!r}")
    if len(set(alphabet)) != len(alphabet):
        repeated = {a for i, a in enumerate(alphabet) if a in alphabet[:i]}
        raise ValueError(f"alphabet repeats the letters {sorted(repeated)}")


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

    def __post_init__(self):
        _check_alphabet(self.alphabet)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def non_halting(self) -> frozenset:
        return frozenset(range(self.dim)) - self.accepting - self.rejecting

    def working_symbols(self):
        return tuple(self.alphabet) + (LEFT_END, RIGHT_END)

    @cached_property
    def plan(self) -> "RunPlan":
        """The automaton compiled for the runners on first use; cached, so
        ``unitaries`` must not be mutated after the first run."""
        return RunPlan(self)


class RunPlan:
    """A quantum automaton compiled for the runners.

    The plan keeps its vectors in one state order: the non-halting states,
    then the accepting, then the rejecting ones, each in index order.
    ``non``, ``acc`` and ``rej`` are the slices of those parts, ``initial()``
    is a fresh copy of the initial vector in that order, and ``apply[sym]``
    is the symbol's operator lowered into it once by ``linalg.lower``.  A
    residue is the non-halting part of a vector, of shape ``(k,)`` for the
    plan's k non-halting states.  ``begin()`` gives the observed initial
    vector as (p_acc, p_rej, residue), and ``observe(psi, apply[sym])`` one
    measure-many step on a residue as (accept mass, reject mass, new
    residue); a residue is never written to once returned.  Each mass is the
    ``vdot`` of a contiguous slice of the step's full output.
    """

    def __init__(self, q: QuantumAutomaton):
        if q.accepting & q.rejecting:
            raise ValueError(f"overlapping partition: {sorted(q.accepting & q.rejecting)}")
        n = q.initial.shape[0]
        outside = sorted(i for i in q.accepting | q.rejecting if not 0 <= i < n)
        if outside:
            raise ValueError(f"halting indices outside 0..{n - 1}: {outside}")
        accepting = np.array(sorted(q.accepting), dtype=np.intp)
        rejecting = np.array(sorted(q.rejecting), dtype=np.intp)
        halting = np.zeros(n, dtype=bool)
        halting[accepting] = halting[rejecting] = True
        order = np.concatenate([np.flatnonzero(~halting), accepting, rejecting])
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n)
        self.apply = {sym: linalg.lower(m, pos) for sym, m in q.unitaries.items()}
        k, h = n - len(accepting) - len(rejecting), n - len(rejecting)
        self.non, self.acc, self.rej = non, acc, rej = slice(k), slice(k, h), slice(h, n)
        # the initial vector's nonzero amplitudes and their positions: the
        # plan keeps no vector of the automaton's size between runs
        nonzero = np.flatnonzero(q.initial)
        at, amplitudes = pos[nonzero], q.initial[nonzero]

        def initial():
            v = np.zeros(n, dtype=complex)
            v[at] = amplitudes
            return v

        vdot = np.vdot

        def observe(psi, op):
            out = op(psi)
            a, r = out[acc], out[rej]
            return float(vdot(a, a).real), float(vdot(r, r).real), out[non]

        v = initial()
        masses = linalg.norm_squared(v[acc]), linalg.norm_squared(v[rej])

        def begin():
            return (*masses, initial()[non])

        self.initial = initial
        self.observe = observe
        self.begin = begin


@dataclass(frozen=True, eq=False)
class ClassicalAutomaton:
    """Deterministic automaton, either a plain DFA or a halt-on-enter RFA.

    In ``end-of-word`` mode acceptance is decided by the final state and
    endmarkers play no role.  In ``halt-on-enter`` mode the automaton reads
    ^ word $ and halts as soon as it enters an accepting or rejecting state;
    halting states have no outgoing transitions.  ``table`` is an int32
    array of shape ``(n_states, len(symbols))``: ``table[s, k]`` is the
    target of state s on ``symbols[k]``, -1 where there is none.  Two
    automata are equal when their fields are and their tables hold the same
    entries; like the table, an automaton is not hashable.
    """

    states: tuple
    alphabet: tuple
    start: int
    accepting: frozenset
    table: np.ndarray
    rejecting: frozenset = frozenset()
    halting_mode: str = END_OF_WORD

    def __post_init__(self):
        _check_alphabet(self.alphabet)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = ("states", "alphabet", "start", "accepting", "rejecting", "halting_mode")
        return all(getattr(self, f) == getattr(other, f) for f in fields) and np.array_equal(
            self.table, other.table
        )

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def halting(self) -> frozenset:
        if self.halting_mode == HALT_ON_ENTER:
            return self.accepting | self.rejecting
        return frozenset()

    @property
    def symbols(self) -> tuple:
        """The symbols a transition may read, in the order of the table's
        columns: the alphabet, then both endmarkers in halt-on-enter mode."""
        if self.halting_mode == HALT_ON_ENTER:
            return tuple(self.alphabet) + (LEFT_END, RIGHT_END)
        return tuple(self.alphabet)


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

    def __post_init__(self):
        _check_alphabet(self.alphabet)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def halting(self) -> frozenset:
        return self.accepting | self.rejecting

    @cached_property
    def rows(self) -> dict:
        """``transitions`` with every implicit self-loop of a non-halting state
        spelled out: a missing working-symbol row of a live state keeps its mass."""
        out = dict(self.transitions)
        for sym in tuple(self.alphabet) + (LEFT_END, RIGHT_END):
            for s in range(self.n_states):
                if s not in self.halting:
                    out.setdefault((s, sym), [(s, 1.0)])
        return out


@dataclass(frozen=True)
class RunOutcome:
    """Accept/reject/never-halt probabilities of one run.

    ``trace`` holds the cumulative (p_acc, p_rej) after each symbol of a
    ``run_measure_many`` or ``run_prfa`` run; it is empty for a measure-once
    run, for each scan of a multi-scan run and for each prefix of
    ``run_prefixes``.
    """

    p_acc: float
    p_rej: float
    p_non: float
    trace: tuple = ()

    def as_tuple(self):
        return (self.p_acc, self.p_rej, self.p_non)


def make_qfa(
    states,
    alphabet,
    accepting,
    rejecting,
    initial,
    partial_unitaries,
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

    def resolve(sym, spec):
        if isinstance(spec, dict):
            partial = np.zeros((n, n), dtype=complex)
            rows = set()
            for name, row in spec.items():
                i = _index_of(name, index, f"a partial row of {sym!r}")
                partial[i] = linalg.as_state_vector(row)
                rows.add(i)
            return linalg.complete_unitary(partial, rows)
        return linalg.as_operator(spec)

    unitaries = {}
    for sym in tuple(alphabet) + (LEFT_END, RIGHT_END):
        if sym in partial_unitaries:
            unitaries[sym] = resolve(sym, partial_unitaries[sym])
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
        accepting=frozenset(_to_indices(accepting, index, "accepting")),
        rejecting=frozenset(_to_indices(rejecting, index, "rejecting")),
        initial=init,
        unitaries=unitaries,
    )


def _index_of(name, index, what: str) -> int:
    if name not in index:
        raise ValueError(f"{what} names undeclared state {name!r}")
    return index[name]


def _to_indices(items, index, what: str):
    return [_index_of(item, index, what) if isinstance(item, str) else int(item) for item in items]


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
        try:
            defect = linalg.unitarity_defect(m)
        except ValueError as exc:  # a dense "matrix" that is not square
            problems.append(f"symbol {sym!r}: {exc}")
            continue
        if not defect <= tol:
            problems.append(f"symbol {sym!r}: unitarity deviation {defect:.3e}")
    return problems


def validate_classical(c: ClassicalAutomaton) -> list:
    """Invariant report for deterministic automata.

    After the state checks, a table whose shape is not ``(n_states,
    len(symbols))`` is reported on its own.  Otherwise missing transitions
    and transitions out of halting states come in (state, symbol) order, and
    then, in the same order, the entries that are neither -1 nor a state.
    """
    problems = []
    n = c.n_states
    if not 0 <= c.start < n:
        problems.append("start state out of range")
    overlap = c.accepting & c.rejecting
    if overlap:
        problems.append(f"accepting/rejecting overlap: {sorted(overlap)}")
    for what, group in (("accepting", c.accepting), ("rejecting", c.rejecting)):
        problems += [f"{what} state index {s} out of range" for s in sorted(group) if not 0 <= s < n]
    symbols, table = c.symbols, c.table
    if table.shape != (n, len(symbols)):
        return problems + [f"transition table has shape {table.shape}, expected {(n, len(symbols))}"]
    has = table != -1  # an entry out of range is a transition with a wrong target
    halting = np.zeros(n, dtype=bool)
    halting[[s for s in c.halting if 0 <= s < n]] = True
    # a halting state must have no transition, any other state every one
    for s, k in zip(*np.nonzero(np.where(halting[:, None], has, ~has))):
        if halting[s]:
            problems.append(f"halting state {c.states[s]} has outgoing transition on {symbols[k]!r}")
        else:
            problems.append(f"missing transition from {c.states[s]} on {symbols[k]!r}")
    if table.min(initial=-1) < -1 or table.max(initial=-1) >= n:
        problems += [
            f"transition from {c.states[s]} on {symbols[k]!r} targets invalid state {table[s, k]}"
            for s, k in zip(*np.nonzero((table < -1) | (table >= n)))
        ]
    return problems


def validate_prfa(p: ProbabilisticAutomaton) -> list:
    """Invariant report for PRFAs.

    A missing (state, symbol) entry of a non-halting state is an implicit
    self-loop and counts in the reversibility check; halting states have no
    outgoing edges.  A probability sum that is NaN fails like any other.
    """
    problems = []
    n = p.n_states
    total = 0.0
    for _, prob in p.initial_distribution:
        if prob < -_PRFA_TOL:
            problems.append("negative initial probability")
        total += prob
    if not abs(total - 1.0) <= _PRFA_TOL:
        problems.append(f"initial distribution sums to {total!r}")
    for (s, a), edges in p.transitions.items():
        if s in p.halting:
            problems.append(f"halting state {p.states[s]} has outgoing edges on {a!r}")
        if any(not 0 <= t < n for t, _ in edges):
            problems.append(f"edge out of ({p.states[s]}, {a!r}) targets an invalid state")
            continue
        mass = sum(prob for _, prob in edges)
        if not abs(mass - 1.0) <= _PRFA_TOL:
            problems.append(
                f"outgoing probabilities from ({p.states[s]}, {a!r}) sum to {mass!r}"
            )
        if any(prob < -_PRFA_TOL for _, prob in edges):
            problems.append(f"negative probability out of ({p.states[s]}, {a!r})")
    seen = {}
    for (s, a), edges in sorted(p.rows.items()):
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


def _in_edges(table: np.ndarray, rank=None):
    """The entries of a transition table as edges grouped by (target, column).

    Returns ``(source, target, column, first)``: the edges sorted by target,
    then by ``rank[column]`` (the column itself when ``rank`` is None), then
    by source, and the position of the first edge of each group.
    """
    source, column = np.nonzero(table >= 0)
    target = table[source, column]
    key = target.astype(np.int64) * table.shape[1] + (column if rank is None else rank[column])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return source[order], target[order], column[order], first


def is_reversible(c: ClassicalAutomaton):
    """Check that every (state, symbol) has at most one predecessor.

    Returns (flag, tuples); each tuple is (q1, q2, q, a) naming two distinct
    states that both move to q on a.  The tuples come in (q, a) order, by
    state index and then symbol; within one (q, a), q1 and q2 go by index.
    """
    symbols = c.symbols
    rank = np.argsort(sorted(range(len(symbols)), key=symbols.__getitem__))  # of each symbol, sorted
    source, target, column, first = _in_edges(c.table, rank)
    bounds = np.append(first, len(source)).tolist()
    tuples = [
        (c.states[q1], c.states[q2], c.states[target[lo]], symbols[column[lo]])
        for lo, hi in zip(bounds, bounds[1:])
        if hi - lo > 1
        for q1, q2 in itertools.combinations(source[lo:hi].tolist(), 2)
    ]
    return (not tuples), tuples


def rfa_to_prfa(c: ClassicalAutomaton) -> ProbabilisticAutomaton:
    """Embed a reversible halt-on-enter automaton as a PRFA with unit edges."""
    if c.halting_mode != HALT_ON_ENTER:
        raise ValueError("rfa_to_prfa expects a halt-on-enter automaton")
    flag, tuples = is_reversible(c)
    if not flag:
        raise ValueError(f"automaton is not reversible, e.g. {tuples[0]}")
    sources, columns = np.nonzero(c.table >= 0)
    targets = c.table[sources, columns].tolist()
    keys = zip(sources.tolist(), map(c.symbols.__getitem__, columns.tolist()))
    transitions = {key: [(t, 1.0)] for key, t in zip(keys, targets)}
    return ProbabilisticAutomaton(
        states=c.states,
        alphabet=c.alphabet,
        initial_distribution=((c.start, 1.0),),
        accepting=c.accepting,
        rejecting=c.rejecting,
        transitions=transitions,
    )


def prfa_to_qfa(p: ProbabilisticAutomaton) -> QuantumAutomaton:
    """Square-root embedding of a PRFA into a QFA.

    The probabilities of each row (and of the initial distribution) are summed
    per target, so a target listed twice counts once with their total, and
    each sum becomes an amplitude equal to its square root.  The PRFA
    reversibility invariant makes the rows orthonormal, so ``make_qfa``
    extends each symbol's rows to a unitary; outcome probabilities then agree
    with the PRFA on every word.  Halting rows stay unspecified: the rows
    entering a halting state already span it.
    """
    problems = validate_prfa(p)
    if problems:
        raise ValueError("invalid PRFA: " + "; ".join(problems))
    n = p.n_states

    def amplitudes(edges):
        row = np.zeros(n)
        for t, prob in edges:
            row[t] += prob
        return np.sqrt(row)

    rows = {sym: {} for sym in tuple(p.alphabet) + (LEFT_END, RIGHT_END)}
    for (s, sym), edges in p.rows.items():
        if sym in rows:  # rows for symbols outside the working alphabet are ignored
            rows[sym][p.states[s]] = amplitudes(edges)
    return make_qfa(
        p.states, p.alphabet, p.accepting, p.rejecting, amplitudes(p.initial_distribution), rows
    )
