"""Shared helpers for the test suite: random automata, small reference DFAs
and independent oracles that the library itself does not need."""

import dataclasses
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from qfa.automata import (
    END_OF_WORD,
    HALT_ON_ENTER,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
)
from qfa.analysis import DEFAULT_MONOID_CAP, ConstructionWitness, _fates, _monoid, _plain_table, _require_plain
from qfa.constructions import is_prime
from qfa.linalg import BlockDiagOp, ComposedOp, IdentityOp, PermutationOp, PlaneRotationOp, TensorPowerOp
from qfa.semantics import _working_stream
from qfa.serialize import (
    FORMAT_VERSION,
    FileFormatError,
    _alphabet,
    _list,
    _lookup,
    _mapping,
    _require,
    _state_index,
    classical_from_dict,
)


def random_qfa(seed: int) -> QuantumAutomaton:
    """Random small QFA with proper unitaries and a halting partition."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    n_acc = int(rng.integers(1, 3))
    n_rej = int(rng.integers(1, 3))
    if n_acc + n_rej >= n:
        n_acc = n_rej = 1
    unitaries = {}
    for sym in ("a", "b", "^", "$"):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        unitaries[sym] = q * (np.diag(r) / np.abs(np.diag(r)))
    initial = rng.normal(size=n) + 1j * rng.normal(size=n)
    initial /= np.linalg.norm(initial)
    return QuantumAutomaton(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=("a", "b"),
        accepting=frozenset(range(n_acc)),
        rejecting=frozenset(range(n_acc, n_acc + n_rej)),
        initial=initial,
        unitaries=unitaries,
    )


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_operator(rng, dim, depth):
    """Random structured operator of the given dimension, nested up to ``depth``."""
    kinds = ["identity", "dense", "permutation"]
    if dim >= 2:
        kinds.append("rotation")
    powers = [(k, c) for k in (2, 3) for c in range(1, 6) if k**c == dim]
    if powers:
        kinds += ["tensor", "tensor"]
    if depth > 0:
        kinds += ["blocks", "blocks", "composed"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "identity":
        return IdentityOp(dim)
    if kind == "dense":
        return random_unitary(rng, dim)
    if kind == "permutation":
        return PermutationOp(rng.permutation(dim))
    if kind == "rotation":
        axis = int(rng.integers(dim))
        target = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        target[axis] = 0.0
        return PlaneRotationOp(axis, target / np.linalg.norm(target))
    if kind == "tensor":
        k, c = powers[int(rng.integers(len(powers)))]
        return TensorPowerOp(random_unitary(rng, k), c)
    if kind == "composed":
        count = int(rng.integers(1, 4))
        return ComposedOp([random_operator(rng, dim, depth - 1) for _ in range(count)])
    # direct sum: cut dim into parts, often repeating one part size so that
    # equal-shape tensor powers share a batch
    parts = []
    left = dim
    while left:
        size = min(left, int(rng.choice([1, 2, 4, 4, 8, 9, 16, 32])))
        parts += [size] * min(int(rng.integers(1, 4)), left // size)
        left = dim - sum(parts)
    return BlockDiagOp([random_operator(rng, size, depth - 1) for size in parts])


def partial_row_prfa(seed: int, max_states: int = 6) -> ProbabilisticAutomaton:
    """Random PRFA over {a, b} that leaves some (state, symbol) rows undefined.

    A live state without a row keeps its mass, so on that symbol it is its
    own only predecessor: it is left out of the target pool of the others.
    """
    rng = random.Random(seed)
    n_live = rng.randint(2, max_states - 2)
    names = [f"s{i}" for i in range(n_live)] + ["acc", "rej"]
    total = len(names)
    transitions = {}
    for sym in ("a", "b", LEFT_END, RIGHT_END):
        kept = [s for s in range(n_live) if rng.random() < 0.3]
        defined = [s for s in range(n_live) if s not in kept]
        pool = [t for t in range(total) if t not in kept]
        rng.shuffle(pool)
        cuts = sorted(rng.sample(range(1, len(pool)), len(defined) - 1)) if len(defined) > 1 else []
        for s, lo, hi in zip(defined, [0] + cuts, cuts + [len(pool)]):
            weights = [rng.random() + 0.05 for _ in pool[lo:hi]]
            transitions[(s, sym)] = [(t, w / sum(weights)) for t, w in zip(pool[lo:hi], weights)]
    weights = [rng.random() + 0.05 for _ in range(n_live)]
    return ProbabilisticAutomaton(
        states=tuple(names),
        alphabet=("a", "b"),
        initial_distribution=tuple((s, w / sum(weights)) for s, w in enumerate(weights)),
        accepting=frozenset({n_live}),
        rejecting=frozenset({n_live + 1}),
        transitions=transitions,
    )


def sample_prfa(p: ProbabilisticAutomaton, word, n_samples: int, seed: int = 0):
    """Monte-Carlo frequencies of a PRFA run (sanity companion to run_prfa)."""
    stream = _working_stream(p, word)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)

    def pick(edges, u):
        acc = 0.0
        for t, prob in edges:
            acc += prob
            if u < acc:
                return t
        return edges[-1][0]

    counts = {"acc": 0, "rej": 0, "non": 0}
    rows = p.rows
    init = tuple(p.initial_distribution)
    for _ in range(n_samples):
        state = pick(init, rng.random())
        verdict = None
        if state in p.accepting:
            verdict = "acc"
        elif state in p.rejecting:
            verdict = "rej"
        else:
            for sym in stream:
                state = pick(rows[(state, sym)], rng.random())
                if state in p.accepting:
                    verdict = "acc"
                    break
                if state in p.rejecting:
                    verdict = "rej"
                    break
        counts[verdict or "non"] += 1
    return {k: v / n_samples for k, v in counts.items()}


def is_good_coefficient(p: int, k: int, j: int) -> bool:
    """True iff the k-rotation rejects a^j with probability at least 1/2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must be in 1..{p - 1}, got {k}")
    if j % p == 0:
        raise ValueError("j must not be divisible by p")
    return math.cos(2.0 * math.pi * j * k / p) ** 2 <= 0.5


def min_good_fraction(seq) -> float:
    """Worst case over j of the fraction of a GoodSequence's coefficients good for a^j."""
    worst = 1.0
    for j in range(1, seq.p):
        good = sum(1 for k in seq.coefficients if is_good_coefficient(seq.p, k, j))
        worst = min(worst, good / seq.length)
    return worst


def table_of(c: ClassicalAutomaton, transitions: dict) -> np.ndarray:
    """The int32 table of ``c``'s shape that holds ``transitions``, a dict
    (state index, symbol) -> target; every other entry is -1.  A target is
    kept as it is, a state or not.  An entry that the table cannot hold is
    refused as the file reader refuses it."""
    column = {a: k for k, a in enumerate(c.symbols)}
    table = np.full((c.n_states, len(column)), -1, dtype=np.int32)
    for (s, a), t in transitions.items():
        if not 0 <= s < c.n_states:
            raise FileFormatError(f"transition source index {s} out of range")
        if a not in column:
            raise FileFormatError(f"transition from {c.states[s]} on {a!r}: not a symbol of the automaton")
        table[s, column[a]] = t
    return table


def classical(transitions: dict, **fields) -> ClassicalAutomaton:
    """The ``ClassicalAutomaton`` of the other constructor ``fields`` whose
    table holds ``transitions`` (see ``table_of``).  The constructor's own
    checks come first."""
    shell = ClassicalAutomaton(table=np.empty((0, 0), dtype=np.int32), **fields)
    return dataclasses.replace(shell, table=table_of(shell, transitions))


def transitions_of(c: ClassicalAutomaton) -> dict:
    """Oracle side: ``c.table`` as a dict (state index, symbol) -> target of
    every entry that is not -1, in (state, symbol) order."""
    rows, cols = np.nonzero(c.table != -1)
    keys = zip(rows.tolist(), map(c.symbols.__getitem__, cols.tolist()))
    return dict(zip(keys, c.table[rows, cols].tolist()))


def astar_dfa() -> ClassicalAutomaton:
    """Minimal two-state DFA for a* over {a, b}."""
    return classical(
        states=("live", "dead"),
        alphabet=("a", "b"),
        start=0,
        accepting=frozenset({0}),
        transitions={
            (0, "a"): 0,
            (0, "b"): 1,
            (1, "a"): 1,
            (1, "b"): 1,
        },
        halting_mode=END_OF_WORD,
    )


def sigma_star_dfa() -> ClassicalAutomaton:
    """Single accepting state looping on both letters."""
    return classical(
        states=("all",),
        alphabet=("a", "b"),
        start=0,
        accepting=frozenset({0}),
        transitions={(0, "a"): 0, (0, "b"): 0},
        halting_mode=END_OF_WORD,
    )


def parity_dfa() -> ClassicalAutomaton:
    """Two-state DFA accepting words with an odd number of a's."""
    return classical(
        states=("even", "odd"),
        alphabet=("a",),
        start=0,
        accepting=frozenset({1}),
        transitions={(0, "a"): 1, (1, "a"): 0},
        halting_mode=END_OF_WORD,
    )


def random_halt_on_enter(seed):
    """Seeded halt-on-enter automaton over {a, b}: any state may halt or start."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    role = [rng.choice(("live", "live", "acc", "rej")) for _ in range(n)]
    return classical(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=("a", "b"),
        start=rng.randrange(n),
        accepting=frozenset(s for s in range(n) if role[s] == "acc"),
        rejecting=frozenset(s for s in range(n) if role[s] == "rej"),
        transitions={
            (s, a): rng.randrange(n)
            for s in range(n)
            if role[s] == "live"
            for a in ("a", "b", LEFT_END, RIGHT_END)
        },
        halting_mode=HALT_ON_ENTER,
    )


def reference_run_dfa(c: ClassicalAutomaton, delta: dict, word) -> int:
    """Oracle: the dict walk that ``semantics.run_dfa`` replaced, over
    ``delta = transitions_of(c)``.  Returns the state the run ends on, so
    ``run_dfa`` accepts exactly when it is accepting; a missing transition
    ends in a KeyError."""
    stream = _working_stream(c, word)
    if c.halting_mode != HALT_ON_ENTER:
        stream = stream[1:-1]
    state = c.start
    for sym in stream:
        if state in c.halting:
            break
        state = delta[(state, sym)]
    return state


def reference_reachable(transitions: dict, alphabet, origin: int) -> set:
    """Oracle: the states reachable from origin (inclusive) over a transition
    dict; the dict search that ``analysis._reach`` replaced."""
    seen = {origin}
    frontier = [origin]
    while frontier:
        s = frontier.pop()
        for a in alphabet:
            t = transitions.get((s, a))
            if t is not None and t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def reference_minimize_dfa(c: ClassicalAutomaton) -> ClassicalAutomaton:
    """Oracle: the dict minimizer that ``analysis.minimize_dfa`` replaced.

    Hopcroft partition refinement over the states reachable from the start,
    then the classes numbered by BFS from the start class with the letters in
    alphabet order, each class reading the row of its least state.  A missing
    reachable transition ends in a KeyError.
    """
    _require_plain(c, "minimize_dfa")
    delta = transitions_of(c)
    alive = sorted(reference_reachable(delta, c.alphabet, c.start))

    # Hopcroft refinement over the reachable part
    inverse = {}
    for s in alive:
        for a in c.alphabet:
            inverse.setdefault((delta[(s, a)], a), set()).add(s)
    final = frozenset(s for s in alive if s in c.accepting)
    nonfinal = frozenset(alive) - final
    partition = {b for b in (final, nonfinal) if b}
    work = set()
    if final and nonfinal:
        work.add(final if len(final) <= len(nonfinal) else nonfinal)
    block_of = {s: b for b in partition for s in b}
    while work:
        splitter = work.pop()
        for a in c.alphabet:
            hit = {}
            for t in splitter:
                for s in inverse.get((t, a), ()):
                    b = block_of[s]
                    hit.setdefault(b, set()).add(s)
            for block, inside in hit.items():
                if len(inside) == len(block):
                    continue
                part1 = frozenset(inside)
                part2 = block - part1
                partition.remove(block)
                partition.update((part1, part2))
                for s in part1:
                    block_of[s] = part1
                for s in part2:
                    block_of[s] = part2
                if block in work:
                    work.remove(block)
                    work.update((part1, part2))
                else:
                    work.add(part1 if len(part1) <= len(part2) else part2)

    # canonical renaming by BFS from the start block
    order = []
    seen = set()
    queue = deque([block_of[c.start]])
    seen.add(block_of[c.start])
    while queue:
        b = queue.popleft()
        order.append(b)
        rep = min(b)
        for a in c.alphabet:
            nb = block_of[delta[(rep, a)]]
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    number = {b: i for i, b in enumerate(order)}
    states = tuple(f"m{i}" for i in range(len(order)))
    transitions = {}
    for b, i in number.items():
        rep = min(b)
        for a in c.alphabet:
            transitions[(i, a)] = number[block_of[delta[(rep, a)]]]
    accepting = frozenset(number[b] for b in order if min(b) in c.accepting)
    return classical(
        transitions,
        states=states,
        alphabet=tuple(c.alphabet),
        start=number[block_of[c.start]],
        accepting=accepting,
        halting_mode=END_OF_WORD,
    )


def classical_to_dict(c: ClassicalAutomaton) -> dict:
    """Oracle: the dict of a dfa or rfa file, built from ``transitions_of(c)``;
    ``serialize.save`` writes ``json.dump`` of it at indent 1 from the table."""
    flag = c.halting_mode == HALT_ON_ENTER
    transitions = {}
    for (s, a), t in sorted(transitions_of(c).items(), key=lambda kv: (kv[0][0], kv[0][1])):
        transitions.setdefault(c.states[s], {})[a] = c.states[t]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "rfa" if flag else "dfa",
        "states": list(c.states),
        "alphabet": list(c.alphabet),
        "start": c.states[c.start],
        "accepting": sorted(c.states[i] for i in c.accepting),
        "rejecting": sorted(c.states[i] for i in c.rejecting),
        "halting_mode": c.halting_mode,
        "transitions": transitions,
    }


def reference_non_reversibilities(transitions: dict, key=None) -> list:
    """Oracle: the dict pass that ``is_reversible`` replaced.

    Every (q1, q2, q, a) where distinct states q1 and q2 both enter q on a.
    The tuples come in (q, a) order; within one (q, a) the entering states
    are ordered by ``key`` (by index when None) and q1 comes first.
    """
    entering = {}
    for (s, a), t in transitions.items():
        entering.setdefault((t, a), []).append(s)
    return [
        (q1, q2, q, a)
        for (q, a), sources in sorted(kv for kv in entering.items() if len(kv[1]) > 1)
        for q1, q2 in itertools.combinations(sorted(sources, key=key), 2)
    ]


def reference_classical_from_dict(doc: dict) -> ClassicalAutomaton:
    """Oracle: the reader of dfa and rfa files before it filled the table,
    one ``_lookup`` per name into a transition dict, which ``classical``
    then puts in the table; it refuses a symbol the automaton lacks last."""
    kind = doc.get("kind", "dfa")
    _require(doc, f"{kind} file", ("states", "alphabet", "start", "accepting", "transitions"))
    index = _state_index(doc)
    transitions = {}
    for src, row in _mapping(doc["transitions"], "transitions").items():
        s = _lookup(index, src, "a transition")
        for sym, dst in _mapping(row, f"transitions of {src!r}").items():
            transitions[(s, sym)] = _lookup(index, dst, "a transition")
    mode = doc.get("halting_mode", END_OF_WORD)
    if mode not in (END_OF_WORD, HALT_ON_ENTER):
        raise FileFormatError(f"unknown halting mode {mode!r}")
    return classical(
        transitions,
        states=tuple(doc["states"]),
        alphabet=tuple(_alphabet(doc)),
        start=_lookup(index, doc["start"], "start"),
        accepting=frozenset(_lookup(index, s, "accepting") for s in _list(doc, "accepting")),
        rejecting=frozenset(_lookup(index, s, "rejecting") for s in _list(doc, "rejecting")),
        halting_mode=mode,
    )


def assert_readers_agree(doc: dict):
    """``serialize.classical_from_dict`` and its oracle raise the same error
    on ``doc``, or give equal automata whose tables have one dtype."""

    def read(reader):
        try:
            return reader(doc)
        except ValueError as exc:  # FileFormatError, or a value the constructor refuses
            return exc

    got, want = read(classical_from_dict), read(reference_classical_from_dict)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), doc
        return
    assert isinstance(got, ClassicalAutomaton), (got, doc)
    assert got == want and got.table.dtype == want.table.dtype, doc


@dataclass(frozen=True)
class MonoidElement:
    """A state mapping realized by some word, with a shortest witness."""

    mapping: tuple
    word: tuple


def transition_monoid(c: ClassicalAutomaton, cap: int = DEFAULT_MONOID_CAP):
    """All distinct state mappings realized by words, with shortest witnesses.

    The arrays of ``analysis._monoid`` as ``MonoidElement``s.  Enumerated by
    BFS over composition with the generator symbols, so each witness is
    shortest and lexicographically least among shortest.  Raises
    CapacityError exactly when the monoid has more than ``cap`` elements.
    """
    _require_plain(c, "transition_monoid")
    elements, parent, letter, _ = _monoid(c, cap)
    words = [()]
    for p, a in zip(parent[1:].tolist(), letter[1:].tolist()):
        words.append(words[p] + (c.alphabet[a],))
    return [MonoidElement(mapping=tuple(m), word=w) for m, w in zip(elements.tolist(), words)]


def _step_word(delta: dict, state: int, word) -> int:
    for sym in word:
        state = delta[(state, sym)]
    return state


def witness_holds(c: ClassicalAutomaton, w: ConstructionWitness) -> bool:
    """Replay a witness's words on the automaton and re-check its conditions."""
    q1 = c.states.index(w.q1)
    q2 = c.states.index(w.q2)
    eligible = set(range(c.n_states)).difference(*_fates(c))
    delta = transitions_of(c)
    if q1 == q2 or q2 not in eligible:
        return False
    if w.y is None:
        return _step_word(delta, q1, w.x) == q2 and _step_word(delta, q2, w.x) == q2
    if q1 not in eligible:
        return False
    if _step_word(delta, q1, w.x) != q1:
        return False
    if _step_word(delta, q1, w.y) != q2 or _step_word(delta, q2, w.y) != q2:
        return False
    # an independent walk, not the detector's array pass: x^k returns q2 to q2
    # for some k <= n exactly when q2 lies on a cycle of x
    x = [_step_word(delta, s, w.x) for s in range(c.n_states)]
    cur = x[q2]
    for _ in range(c.n_states):
        if cur == q2:
            return False
        cur = x[cur]
    return True


def to_plain_dfa(c: ClassicalAutomaton) -> ClassicalAutomaton:
    """Unfold a halt-on-enter automaton into an equivalent plain DFA on its
    states, as ``analysis._plain_table`` describes."""
    if c.halting_mode == END_OF_WORD:
        return c
    table, accepting, start = _plain_table(c)
    return ClassicalAutomaton(
        states=tuple(c.states),
        alphabet=tuple(c.alphabet),
        start=start,
        accepting=frozenset(np.flatnonzero(accepting).tolist()),
        table=table,
        halting_mode=END_OF_WORD,
    )
