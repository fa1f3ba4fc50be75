"""Minimal-DFA machinery and structural decision procedures.

Contains DFA minimization (Moore refinement on the transition table, with
canonical BFS renaming), detection of the two forbidden constructions that
rule out high-probability quantum / probabilistic-reversible recognition,
the non-reversibility elimination transform, transition-monoid enumeration,
and language equivalence with shortest counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import (
    END_OF_WORD,
    HALT_ON_ENTER,
    LEFT_END,
    ClassicalAutomaton,
    _in_edges,
    is_reversible,
)
from .linalg import CapacityError

DEFAULT_MONOID_CAP = 100000
MAX_REVERSIBILIZED_STATES = 1000000
# a state mapping packs into an int64 as n base-n digits while n**n < 2**63
_PACKED_KEY_MAX_STATES = 15


class NotReversibilizableError(ValueError):
    """The minimal automaton contains the forbidden construction."""


@dataclass(frozen=True)
class ConstructionWitness:
    """States and words witnessing a forbidden construction.

    ``x`` sends q1 to q2 and fixes q2.  When ``y`` is present the witness is
    for the stronger probabilistic-reversible obstruction: x fixes q1, y
    sends q1 to q2 and fixes q2, and no power of x returns q2 to itself.
    """

    q1: str
    q2: str
    x: tuple
    y: tuple = None


def _require_plain(c: ClassicalAutomaton, what: str):
    if c.halting_mode != END_OF_WORD:
        raise ValueError(f"{what} expects a plain end-of-word DFA")


def _reach(adj: np.ndarray, seeds, ptr=None) -> np.ndarray:
    """Boolean mask of the nodes reachable from ``seeds``, seeds included.

    Node v has the edges to ``adj[ptr[v]:ptr[v + 1]]`` or, when ``ptr`` is
    None, to the row ``adj[v]`` of a transition table; a negative entry is
    no edge.  The search expands one frontier at a time.
    """
    if ptr is None:
        ptr, adj = adj.shape[1] * np.arange(len(adj) + 1), adj.ravel()
    seen = np.zeros(len(ptr) - 1, dtype=bool)
    seen[seeds] = True
    frontier = np.flatnonzero(seen)
    while len(frontier):
        lo, size = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        ends = np.cumsum(size)
        nxt = adj[np.arange(ends[-1]) + np.repeat(lo - ends + size, size)]
        nxt = nxt[nxt >= 0]
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return seen


def minimize_dfa(c: ClassicalAutomaton) -> ClassicalAutomaton:
    """Unique minimal DFA for the same language, states renamed in BFS order.

    Moore refinement on the reachable rows of ``c.table``: each round, a
    state's class and the classes of its successors name its next class,
    keyed one letter at a time so that every key stays below n².  Rounds
    stop when the class count stops growing.  The classes are then numbered
    breadth-first from the start class, with the letters in alphabet order,
    and each class reads the row of its least state.
    """
    _require_plain(c, "minimize_dfa")
    alive = np.flatnonzero(_reach(c.table, [c.start]))
    rows = c.table[alive]
    missing = np.argwhere(rows < 0)
    if len(missing):
        s, k = missing[0]
        raise ValueError(
            "minimize_dfa needs every transition of a reachable state: "
            f"{c.states[alive[s]]} has none on {c.alphabet[k]!r}"
        )
    local = np.zeros(c.n_states, dtype=np.intp)
    local[alive] = np.arange(len(alive))
    rows = local[rows]
    accepting = np.zeros(c.n_states, dtype=bool)
    accepting[sorted(c.accepting)] = True
    _, key = np.unique(accepting[alive], return_inverse=True)
    count = 0
    while key.max() + 1 > count:
        cls, count = key, key.max() + 1
        for column in rows.T:
            _, key = np.unique(key * count + cls[column], return_inverse=True)
    _, least = np.unique(cls, return_index=True)  # alive is sorted, so the first is the least
    successors = cls[rows[least]]
    order, number = [int(cls[local[c.start]])], np.full(count, -1)
    number[order[0]] = 0
    for b in order:
        for t in successors[b].tolist():
            if number[t] < 0:
                number[t] = len(order)
                order.append(t)
    return ClassicalAutomaton(
        states=tuple(f"m{i}" for i in range(count)),
        alphabet=tuple(c.alphabet),
        start=0,
        accepting=frozenset(np.flatnonzero(accepting[alive[least[order]]]).tolist()),
        table=number[successors[order]].astype(np.int32),
        halting_mode=END_OF_WORD,
    )


def _fates(c: ClassicalAutomaton):
    """The all-accepting and the all-rejecting states of a plain DFA.

    A state is all-accepting when no word takes it to a non-accepting state,
    so one backward search from the non-accepting states, and one from the
    accepting states, classify every state in O(n·|Σ|).  The forbidden
    constructions need states in neither set.
    """
    source, target, _, _ = _in_edges(c.table)
    ptr = np.searchsorted(target, np.arange(c.n_states + 1))
    accepting = np.zeros(c.n_states, dtype=bool)
    accepting[sorted(c.accepting)] = True
    return [set(np.flatnonzero(~_reach(source, seeds, ptr)).tolist()) for seeds in (~accepting, accepting)]


def _facts(c: ClassicalAutomaton):
    """``(halt_accept, halt_reject, merge)`` of a plain DFA, computed once per automaton.

    Both detectors and the precondition of ``reversibilize`` read the fates
    pair and the merge table, so one automaton analyzed by all three builds
    each once.  They are kept in the instance dictionary of the automaton,
    which is immutable, as ``functools.cached_property`` keeps
    ``ClassicalAutomaton.halting``.
    """
    facts = c.__dict__.get("_analysis_facts")
    if facts is None:
        facts = c.__dict__["_analysis_facts"] = (*_fates(c), _merge_table(c))
    return facts


def _shortest_pair_word(t1: np.ndarray, t2: np.ndarray, alphabet, start: tuple, goal):
    """Shortest word taking the state pair ``start`` to a pair that satisfies ``goal``.

    ``t1`` and ``t2`` are complete transition tables whose columns are the
    letters of ``alphabet``, and ``goal(p1, p2)`` marks the goal pairs among
    arrays of pairs.  The search runs one breadth-first level at a time.  The
    candidates of a level are ordered by (frontier position, letter index),
    and each new pair keeps its first occurrence, so the word is also the
    least in alphabet order among the shortest.  Returns the word as a tuple,
    or None when no reachable pair satisfies ``goal``.
    """
    k, n2 = t1.shape[1], t2.shape[0]
    p1, p2 = np.array([start[0]]), np.array([start[1]])
    seen = {start[0] * n2 + start[1]}
    picks = []  # per level: the candidate index of each pair, position * k + letter
    while len(p1):
        hit = np.flatnonzero(goal(p1, p2))
        if len(hit):
            i, word = hit[0], []
            for first in reversed(picks):
                i, a = divmod(int(first[i]), k)
                word.append(alphabet[a])
            return tuple(reversed(word))
        c1, c2 = t1[p1].ravel(), t2[p2].ravel()
        keys, first = np.unique(c1.astype(np.int64) * n2 + c2, return_index=True)
        fresh = np.fromiter((key not in seen for key in keys.tolist()), bool, len(keys))
        seen.update(keys[fresh].tolist())
        first = np.sort(first[fresh])
        picks.append(first)
        p1, p2 = c1[first], c2[first]
    return None


def _merge_table(c: ClassicalAutomaton) -> np.ndarray:
    """``merge[q1, q2]`` is True when some word y has q1·y = q2 and q2·y = q2.

    One reverse BFS over the pair graph from each diagonal pair (q2, q2)
    marks every pair that can reach it, so the whole table costs O(n^3·|Σ|).
    """
    n = c.n_states
    preds = [[[] for _ in range(n)] for _ in c.alphabet]
    for k, column in enumerate(c.table.T.tolist()):
        for s, t in enumerate(column):
            preds[k][t].append(s)
    merge = np.zeros((n, n), dtype=bool)
    for q2 in range(n):
        seen = bytearray(n * n)
        seen[q2 * n + q2] = 1
        frontier = [(q2, q2)]
        while frontier:
            p, r = frontier.pop()
            for inverse in preds:
                for r0 in inverse[r]:
                    for p0 in inverse[p]:
                        if not seen[p0 * n + r0]:
                            seen[p0 * n + r0] = 1
                            frontier.append((p0, r0))
        merge[:, q2] = np.frombuffer(seen, dtype=bool)[q2::n]
    return merge


def find_forbidden_construction(c: ClassicalAutomaton):
    """Search a minimal DFA for the pattern barring high-probability QFAs.

    Looks for distinct states q1, q2 and a word x with x: q1 -> q2 and
    x: q2 -> q2, where q2 is neither all-accepting nor all-rejecting.  The
    merge table picks the first such pair; the word is then recovered by BFS
    over the pair graph, so it is a shortest one.  Returns a
    ConstructionWitness or None.
    """
    _require_plain(c, "find_forbidden_construction")
    halt_accept, halt_reject, merge = _facts(c)
    eligible = np.ones(c.n_states, dtype=bool)
    eligible[list(halt_accept | halt_reject)] = False
    pairs = np.argwhere(merge & eligible & ~np.eye(c.n_states, dtype=bool))
    if not len(pairs):
        return None
    q1, q2 = pairs[0].tolist()
    x = _shortest_pair_word(
        c.table, c.table, c.alphabet, (q1, q2), lambda p1, p2: (p1 == q2) & (p2 == q2)
    )
    return ConstructionWitness(q1=c.states[q1], q2=c.states[q2], x=x)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of an (F, n) array of state mappings.

    Equal rows get equal keys and distinct rows distinct ones, and the keys
    sort, so ``np.unique`` and ``np.searchsorted`` work on them.  A row is n
    base-n digits of an int64 when that fits, and its raw bytes otherwise.
    """
    n = rows.shape[1]
    if n <= _PACKED_KEY_MAX_STATES:
        return rows @ n ** np.arange(n, dtype=np.int64)
    return np.ascontiguousarray(rows).view(np.dtype((np.void, n * rows.itemsize))).ravel()


def _monoid(c: ClassicalAutomaton, cap: int):
    """The transition monoid as arrays, enumerated one BFS level at a time.

    Returns ``(elements, parent, letter, starts)``.  Row i of ``elements`` is
    a state mapping; it was first reached by appending the letter
    ``c.alphabet[letter[i]]`` to the word of row ``parent[i]`` (-1 for the
    identity, row 0), and rows ``starts[k]:starts[k + 1]`` are the elements
    whose shortest word has length k.  Rows come in the order of a BFS that
    tries the letters in alphabet order, so each word is shortest and the
    least in that order among the shortest.  Raises CapacityError exactly
    when the monoid has more than ``cap`` elements.
    """
    n, k = c.n_states, len(c.alphabet)
    dtype = np.min_scalar_type(max(n - 1, 0))
    images = c.table.T.astype(dtype)
    level = np.arange(n, dtype=dtype)[None]
    seen = _row_keys(level)  # sorted keys of every element so far
    levels, parents, letters, starts = [level], [np.array([-1])], [np.array([-1])], [0, 1]
    while True:
        if starts[-1] > cap:
            raise CapacityError(f"transition monoid exceeds cap of {cap} elements")
        # level element f followed by letter a maps s to images[a][f[s]]; rows
        # ordered (element, letter) are the candidates in BFS order
        candidates = images[:, level].transpose(1, 0, 2).reshape(-1, n)
        keys, first = np.unique(_row_keys(candidates), return_index=True)
        at = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(at, len(seen) - 1)] != keys
        if not fresh.any():
            break
        seen = np.insert(seen, at[fresh], keys[fresh])
        first = np.sort(first[fresh])  # first occurrences, in BFS order
        level = candidates[first]
        levels.append(level)
        parents.append(starts[-2] + first // k)
        letters.append(first % k)
        starts.append(starts[-1] + len(level))
    return np.concatenate(levels), np.concatenate(parents), np.concatenate(letters), starts


def _word(alphabet, parent, letter, i: int) -> tuple:
    """The word of monoid row i, rebuilt from the parent and letter arrays."""
    word = []
    while i > 0:
        word.append(alphabet[letter[i]])
        i = parent[i]
    return tuple(reversed(word))


def _scan_order(alphabet, parent, letter, starts) -> np.ndarray:
    """The monoid rows sorted by (len(word), word), as indices into the BFS order.

    A word sorts by its prefix first and its last letter second, so each
    level is ordered by the rank of its parent in the previous level and
    then by the rank of its letter in ``sorted(alphabet)``.  With a sorted
    alphabet this is the BFS order itself.
    """
    rank_of = {a: r for r, a in enumerate(sorted(alphabet))}
    letter_rank = np.array([rank_of[a] for a in alphabet], dtype=np.intp)
    order = np.arange(len(parent))
    rank = np.arange(len(parent))  # the scan position of each row
    for lo, hi in zip(starts[1:-1], starts[2:]):
        order[lo:hi] = lo + np.lexsort((letter_rank[letter[lo:hi]], rank[parent[lo:hi]]))
        rank[order[lo:hi]] = np.arange(lo, hi)
    return order


def _cyclic_points(f: np.ndarray) -> np.ndarray:
    """``out[r, q]`` is True when some positive power of mapping ``f[r]`` returns q to q.

    On n states, every point reaches its cycle within n - 1 steps, so the
    points on cycles are exactly the image of f^m for any m >= n - 1; m is
    reached by repeated squaring.
    """
    n = f.shape[1]
    power, m = f, 1
    while m < n - 1:
        power = np.take_along_axis(power, power, axis=1)
        m *= 2
    out = np.zeros(f.shape, dtype=bool)
    np.put_along_axis(out, power, True, axis=1)
    return out


def find_prfa_forbidden_construction(c: ClassicalAutomaton, cap: int = DEFAULT_MONOID_CAP):
    """Search a minimal DFA for the stronger two-word obstruction.

    Needs states q1, q2 (neither all-accepting nor all-rejecting) and words
    x, y with x: q1 -> q1, y: q1 -> q2, y: q2 -> q2, and no positive power of
    x returning q2 to q2.  Quantifying over words is done by enumerating the
    transition monoid, which is why the cap is exposed.

    The conditions on y do not involve x: a y exists exactly when the merge
    table holds for (q1, q2).  So one array pass over the monoid, shortest
    word first, finds the first x with such a pair, and a second finds the
    first y for that x, so the scan after the enumeration is O(|M|·n^2).
    """
    _require_plain(c, "find_prfa_forbidden_construction")
    n = c.n_states
    elements, parent, letter, starts = _monoid(c, cap)
    halt_accept, halt_reject, merge = _facts(c)
    eligible = np.ones(n, dtype=bool)
    eligible[list(halt_accept | halt_reject)] = False
    # targets[q1, q2]: some y takes q1 to q2 and fixes q2, both eligible
    targets = merge & eligible & eligible[:, None]
    np.fill_diagonal(targets, False)
    sources = np.flatnonzero(targets.any(axis=1))
    if not len(sources):  # no y merges two eligible states, e.g. every letter a permutation
        return None
    order = _scan_order(c.alphabet, parent, letter, starts)
    mappings = elements[order]

    # x: the first element fixing a source q1 and leaving one of its targets off every cycle
    fixes = mappings[:, sources] == sources
    rows = np.flatnonzero(fixes.any(axis=1))
    reachable = np.matmul(fixes[rows], targets[sources])  # some fixed q1 has q2 as a target
    hits = np.flatnonzero((reachable & ~_cyclic_points(mappings[rows])).any(axis=1))
    if not len(hits):
        return None
    fx = rows[hits[0]]
    fixed = sources[fixes[fx]]
    valid = targets[fixed] & ~_cyclic_points(mappings[fx][None])[0]

    # y: the first element taking a fixed q1 to a valid q2 that it also fixes
    q2 = mappings[:, fixed]
    found = valid[np.arange(len(fixed)), q2] & (np.take_along_axis(mappings, q2, axis=1) == q2)
    fy = np.flatnonzero(found.any(axis=1))
    if not len(fy):
        raise AssertionError("the merge table promised a word that the monoid lacks")
    fy = fy[0]
    q1 = fixed[np.flatnonzero(found[fy])[0]]
    return ConstructionWitness(
        q1=c.states[q1],
        q2=c.states[mappings[fy, q1]],
        x=_word(c.alphabet, parent, letter, order[fx]),
        y=_word(c.alphabet, parent, letter, order[fy]),
    )


# ---------------------------------------------------------------------------
# Reversibilization
# ---------------------------------------------------------------------------


def _split_rounds(c: ClassicalAutomaton):
    """The rounds of ``reversibilize`` on a growing int32 table.

    Each round groups the edges by (target q, symbol a); a group of two or
    more sources is a non-reversibility.  One backward search from all
    sources marks the q that reach one, and of the other groups the least
    by (two smallest source names, name of q, a) is resolved: the region
    reachable from q is appended twice in name order and retired.  Returns
    ``(table, names, origin, start, rounds)``, retired rows included;
    ``origin[s]`` is the state of c that s copies, -1 once retired.
    """
    halt_accept, halt_reject, _ = _facts(c)
    k = len(c.alphabet)
    names = list(c.states)
    table = c.table.copy()
    table[sorted(halt_accept | halt_reject)] = -1
    origin = np.arange(c.n_states)
    size, n_live, start, rounds = c.n_states, c.n_states, c.start, 0
    while True:
        source, target, column, first = _in_edges(table[:size])
        ends = np.append(first[1:], len(source))
        counts = ends - first
        if counts.max(initial=0) < 2:
            return table[:size], names, origin[:size], start, rounds
        if n_live > MAX_REVERSIBILIZED_STATES:
            raise CapacityError("reversibilization exceeded the state budget")
        ptr = np.searchsorted(target, np.arange(size + 1))  # predecessors: source[ptr[v]:ptr[v + 1]]
        reaches_source = _reach(source, source[np.repeat(counts > 1, counts)], ptr)
        maximal = (counts > 1) & ~reaches_source[target[first]]
        candidates = []
        for lo, hi in zip(first[maximal].tolist(), ends[maximal].tolist()):
            q1, q2 = sorted(source[lo:hi].tolist(), key=names.__getitem__)[:2]
            q, a = int(target[lo]), int(column[lo])
            candidates.append(((names[q1], names[q2], names[q], c.alphabet[a]), q1, q2, q, a))
        assert candidates, "partial order on non-reversibilities has no maximal element"
        _, q1, q2, q, a = min(candidates)
        in_region = _reach(table[:size], [q])
        # the forbidden-construction precondition keeps the sources out of the region
        assert not in_region[q1] and not in_region[q2]
        region = np.array(sorted(np.flatnonzero(in_region).tolist(), key=names.__getitem__))
        r = len(region)
        if size + 2 * r > len(table):  # rows past size are written before they are read
            grow = len(table) + max(len(table), 2 * r)
            table, origin = np.resize(table, (grow, k)), np.resize(origin, grow)
        copy0 = np.zeros(size, dtype=np.int32)
        copy0[region] = size + np.arange(r)
        rows = table[region]
        table[size:size + r] = np.where(rows >= 0, copy0[rows], -1)
        table[size + r:size + 2 * r] = np.where(rows >= 0, copy0[rows] + r, -1)
        table[region] = -1
        old = table[:size]
        into = (old >= 0) & in_region[old]
        old[into] = copy0[old[into]]
        table[q2, a] = copy0[q] + r
        start = int(copy0[start]) if in_region[start] else start
        origin[size:size + 2 * r] = np.tile(origin[region], 2)
        origin[region] = -1
        names += [f"{names[s]}#{copy}" for copy in (0, 1) for s in region.tolist()]
        size, n_live, rounds = size + 2 * r, n_live + r, rounds + 1


def reversibilize(c: ClassicalAutomaton) -> ClassicalAutomaton:
    """Turn a minimal DFA without the forbidden construction into an RFA.

    All-accepting and all-rejecting states become halting states first; then
    non-reversibilities (two states entering the same state on the same
    symbol) are eliminated by duplicating the offending state together with
    everything reachable from it, always picking a maximal non-reversibility
    so the total count strictly decreases.  Finally the automaton is put in
    halt-on-enter form: the left endmarker acts as the identity and the right
    endmarker routes every surviving state to a fresh accepting or rejecting
    sink of its own.  Raises CapacityError when a round starts with more than
    MAX_REVERSIBILIZED_STATES live states.
    """
    _require_plain(c, "reversibilize")
    if find_forbidden_construction(c) is not None:
        raise NotReversibilizableError(
            "minimal automaton contains the forbidden construction; no reversible equivalent exists"
        )
    rounds_table, names, origin, start, _ = _split_rounds(c)
    # drop the retired rows, numbering the rest as a compaction after every round would
    keep = np.flatnonzero(origin >= 0)
    remap = np.cumsum(origin >= 0, dtype=np.int32) - 1  # no edge enters a retired state
    names, origin, n, k = [names[s] for s in keep.tolist()], origin[keep], len(keep), len(c.alphabet)

    # halt-on-enter form: identity left endmarker, per-state halting sinks
    fate = np.zeros(c.n_states, dtype=np.int8)  # 1 accepting, 2 all-accepting, 3 all-rejecting
    halt_accept, halt_reject, _ = _facts(c)
    for value, group in ((1, c.accepting), (2, halt_accept), (3, halt_reject)):
        fate[sorted(group)] = value
    fate = fate[origin]
    alive = np.flatnonzero(fate < 2)
    sinks = n + np.arange(len(alive))
    verdicts = fate[alive] == 1
    table = np.full((n + len(alive), k + 2), -1, dtype=np.int32)
    table[:n, :k] = np.where(rounds_table[keep] >= 0, remap[rounds_table[keep]], -1)
    table[alive, k], table[alive, k + 1] = alive, sinks
    names += [f"{'acc' if v else 'rej'}({names[s]})" for s, v in zip(alive.tolist(), verdicts.tolist())]
    out = ClassicalAutomaton(
        states=tuple(names),
        alphabet=tuple(c.alphabet),
        start=int(remap[start]),
        accepting=frozenset(np.flatnonzero(fate == 2).tolist() + sinks[verdicts].tolist()),
        rejecting=frozenset(np.flatnonzero(fate == 3).tolist() + sinks[~verdicts].tolist()),
        table=table,
        halting_mode=HALT_ON_ENTER,
    )
    if np.bincount((table * (k + 2) + np.arange(k + 2))[table >= 0]).max(initial=0) > 1:
        raise AssertionError(f"reversibilization left non-reversibilities: {is_reversible(out)[1][:3]}")
    return out


def _plain_table(c: ClassicalAutomaton):
    """``(table, accepting, start)`` of the plain DFA that ``c`` unfolds to.

    ``table`` has one column per letter and ``accepting`` is a boolean mask.
    A halt-on-enter automaton keeps its states: a halting state keeps its
    verdict by looping on every letter it has no transition on, a state
    accepts when its right-endmarker move enters an accepting state, and a
    live start state takes its left-endmarker move first.
    """
    n, k = c.n_states, len(c.alphabet)
    accepting = np.zeros(n, dtype=bool)
    accepting[list(c.accepting)] = True
    if c.halting_mode == END_OF_WORD:
        return c.table, accepting, c.start
    table = c.table[:, :k].copy()
    halting = np.array(sorted(c.halting), dtype=np.intp)
    rows = table[halting]
    table[halting] = np.where(rows >= 0, rows, halting[:, None])
    right = c.table[:, k + 1]
    accepting |= (right >= 0) & accepting[right]
    if c.start in c.halting:
        return table, accepting, c.start
    start = int(c.table[c.start, k])
    if start < 0:
        raise ValueError(f"start state {c.states[c.start]} has no {LEFT_END!r} transition")
    return table, accepting, start


def dfa_equivalent(c1: ClassicalAutomaton, c2: ClassicalAutomaton):
    """Language equality via product-automaton search.

    Returns (True, None) or (False, shortest distinguishing word), the least
    in alphabet order among the shortest.  Halt-on-enter automata are
    unfolded to plain DFAs first; both must then have every transition.
    """
    if tuple(c1.alphabet) != tuple(c2.alphabet):
        raise ValueError(f"alphabet mismatch: {c1.alphabet} vs {c2.alphabet}")
    t1, acc1, s1 = _plain_table(c1)
    t2, acc2, s2 = _plain_table(c2)
    if t1.min(initial=0) < 0 or t2.min(initial=0) < 0:
        raise ValueError("dfa_equivalent needs automata with every transition")
    word = _shortest_pair_word(
        t1, t2, c1.alphabet, (s1, s2), lambda p1, p2: acc1[p1] != acc2[p2]
    )
    return word is None, word
