"""Minimal-DFA machinery and structural decision procedures.

Contains DFA minimization (Hopcroft partition refinement with canonical BFS
renaming), detection of the two forbidden constructions that rule out
high-probability quantum / probabilistic-reversible recognition, the
non-reversibility elimination transform, transition-monoid enumeration, and
language equivalence with shortest counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .automata import (
    END_OF_WORD,
    HALT_ON_ENTER,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    is_reversible,
)
from .linalg import CapacityError

DEFAULT_MONOID_CAP = 100000


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


@dataclass(frozen=True)
class MonoidElement:
    """A state mapping realized by some word, with a shortest witness."""

    mapping: tuple
    word: tuple


def _require_plain(c: ClassicalAutomaton, what: str):
    if c.halting_mode != END_OF_WORD:
        raise ValueError(f"{what} expects a plain end-of-word DFA")


def _step_word(c: ClassicalAutomaton, state: int, word) -> int:
    for sym in word:
        state = c.transitions[(state, sym)]
    return state


def _reachable(transitions: dict, alphabet, origin: int) -> set:
    """States reachable from origin (inclusive) via existing transitions."""
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


def minimize_dfa(c: ClassicalAutomaton) -> ClassicalAutomaton:
    """Unique minimal DFA for the same language, states renamed in BFS order."""
    _require_plain(c, "minimize_dfa")
    alive = sorted(_reachable(c.transitions, c.alphabet, c.start))

    # Hopcroft refinement over the reachable part
    inverse = {}
    for s in alive:
        for a in c.alphabet:
            inverse.setdefault((c.transitions[(s, a)], a), set()).add(s)
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
            nb = block_of[c.transitions[(rep, a)]]
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    number = {b: i for i, b in enumerate(order)}
    states = tuple(f"m{i}" for i in range(len(order)))
    transitions = {}
    for b, i in number.items():
        rep = min(b)
        for a in c.alphabet:
            transitions[(i, a)] = number[block_of[c.transitions[(rep, a)]]]
    accepting = frozenset(number[b] for b in order if min(b) in c.accepting)
    return ClassicalAutomaton(
        states=states,
        alphabet=tuple(c.alphabet),
        start=number[block_of[c.start]],
        accepting=accepting,
        transitions=transitions,
        halting_mode=END_OF_WORD,
    )


def is_all_accepting(c: ClassicalAutomaton, state: int) -> bool:
    """True iff every continuation from this state is accepted."""
    return all(s in c.accepting for s in _reachable(c.transitions, c.alphabet, state))


def is_all_rejecting(c: ClassicalAutomaton, state: int) -> bool:
    return all(s not in c.accepting for s in _reachable(c.transitions, c.alphabet, state))


def _eligible(c: ClassicalAutomaton, state: int) -> bool:
    return not is_all_accepting(c, state) and not is_all_rejecting(c, state)


def _shortest_pair_word(t1: dict, t2: dict, alphabet, start: tuple, goal):
    """Shortest word taking the state pair ``start`` to a pair that satisfies ``goal``.

    Breadth-first over pairs with the letters tried in alphabet order, so the
    word is also the least in that order among the shortest.  Returns the
    word as a tuple, or None when no reachable pair satisfies ``goal``.
    """
    parent = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        if goal(pair):
            word = []
            while parent[pair] is not None:
                pair, a = parent[pair]
                word.append(a)
            word.reverse()
            return tuple(word)
        for a in alphabet:
            nxt = (t1[(pair[0], a)], t2[(pair[1], a)])
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return None


def find_forbidden_construction(c: ClassicalAutomaton):
    """Search a minimal DFA for the pattern barring high-probability QFAs.

    Looks for distinct states q1, q2 and a word x with x: q1 -> q2 and
    x: q2 -> q2, where q2 is neither all-accepting nor all-rejecting.  The
    word is recovered by BFS over the pair graph, so it is a shortest one.
    Returns a ConstructionWitness or None.
    """
    _require_plain(c, "find_forbidden_construction")
    n = c.n_states
    eligible = [_eligible(c, s) for s in range(n)]
    for q1 in range(n):
        for q2 in range(n):
            if q1 == q2 or not eligible[q2]:
                continue
            x = _shortest_pair_word(
                c.transitions, c.transitions, c.alphabet, (q1, q2), lambda pair: pair == (q2, q2)
            )
            if x is not None:
                return ConstructionWitness(q1=c.states[q1], q2=c.states[q2], x=x)
    return None


def transition_monoid(c: ClassicalAutomaton, cap: int = DEFAULT_MONOID_CAP):
    """All distinct state mappings realized by words, with shortest witnesses.

    Enumerated by BFS over composition with the generator symbols, so each
    witness is shortest and lexicographically least among shortest.  Raises
    CapacityError when the monoid exceeds ``cap`` elements.
    """
    _require_plain(c, "transition_monoid")
    n = c.n_states
    identity = tuple(range(n))
    elements = {identity: ()}
    queue = deque([identity])
    while queue:
        mapping = queue.popleft()
        word = elements[mapping]
        for a in c.alphabet:
            nxt = tuple(c.transitions[(mapping[s], a)] for s in range(n))
            if nxt not in elements:
                if len(elements) >= cap:
                    raise CapacityError(f"transition monoid exceeds cap of {cap} elements")
                elements[nxt] = word + (a,)
                queue.append(nxt)
    return [MonoidElement(mapping=m, word=w) for m, w in elements.items()]


def find_prfa_forbidden_construction(c: ClassicalAutomaton, cap: int = DEFAULT_MONOID_CAP):
    """Search a minimal DFA for the stronger two-word obstruction.

    Needs states q1, q2 (neither all-accepting nor all-rejecting) and words
    x, y with x: q1 -> q1, y: q1 -> q2, y: q2 -> q2, and no positive power of
    x returning q2 to q2.  Quantifying over words is done by enumerating the
    transition monoid, which is why the cap is exposed.
    """
    _require_plain(c, "find_prfa_forbidden_construction")
    n = c.n_states
    eligible = [_eligible(c, s) for s in range(n)]
    elements = transition_monoid(c, cap)
    elements.sort(key=lambda e: (len(e.word), e.word))

    def power_returns(f, q2: int) -> bool:
        cur = f[q2]
        seen = set()
        while cur not in seen:
            if cur == q2:
                return True
            seen.add(cur)
            cur = f[cur]
        return False

    for fx in elements:
        fixed = [q for q in range(n) if fx.mapping[q] == q and eligible[q]]
        if not fixed:
            continue
        for fy in elements:
            for q1 in fixed:
                q2 = fy.mapping[q1]
                if q2 == q1 or not eligible[q2]:
                    continue
                if fy.mapping[q2] != q2:
                    continue
                if power_returns(fx.mapping, q2):
                    continue
                return ConstructionWitness(
                    q1=c.states[q1], q2=c.states[q2], x=fx.word, y=fy.word
                )
    return None


def witness_holds(c: ClassicalAutomaton, w: ConstructionWitness) -> bool:
    """Replay a witness's words on the automaton and re-check its conditions."""
    q1 = c.state_index(w.q1)
    q2 = c.state_index(w.q2)
    if q1 == q2 or not _eligible(c, q2):
        return False
    if w.y is None:
        return _step_word(c, q1, w.x) == q2 and _step_word(c, q2, w.x) == q2
    if not _eligible(c, q1):
        return False
    if _step_word(c, q1, w.x) != q1:
        return False
    if _step_word(c, q1, w.y) != q2 or _step_word(c, q2, w.y) != q2:
        return False
    cur = _step_word(c, q2, w.x)
    seen = set()
    while cur not in seen:
        if cur == q2:
            return False
        seen.add(cur)
        cur = _step_word(c, cur, w.x)
    return True


# ---------------------------------------------------------------------------
# Reversibilization
# ---------------------------------------------------------------------------


def reversibilize(c: ClassicalAutomaton, max_states: int = 1000000) -> ClassicalAutomaton:
    """Turn a minimal DFA without the forbidden construction into an RFA.

    All-accepting and all-rejecting states become halting states first; then
    non-reversibilities (two states entering the same state on the same
    symbol) are eliminated by duplicating the offending state together with
    everything reachable from it, always picking a maximal non-reversibility
    so the total count strictly decreases.  Finally the automaton is put in
    halt-on-enter form: the left endmarker acts as the identity and the right
    endmarker routes every surviving state to a fresh accepting or rejecting
    sink of its own.
    """
    _require_plain(c, "reversibilize")
    if find_forbidden_construction(c) is not None:
        raise NotReversibilizableError(
            "minimal automaton contains the forbidden construction; no reversible equivalent exists"
        )

    names = list(c.states)
    accepting = set(c.accepting)
    transitions = dict(c.transitions)
    start = c.start

    # states whose every continuation is accepted (or rejected) halt immediately
    halt_accept = set()
    halt_reject = set()
    for s in range(len(names)):
        if is_all_accepting(c, s):
            halt_accept.add(s)
        elif is_all_rejecting(c, s):
            halt_reject.add(s)
    for s in halt_accept | halt_reject:
        for a in c.alphabet:
            transitions.pop((s, a), None)

    def non_reversibilities():
        preds = {}
        for (s, a), t in transitions.items():
            preds.setdefault((t, a), []).append(s)
        tuples = []
        for (t, a), sources in preds.items():
            sources = sorted(sources, key=lambda s: names[s])
            for i in range(len(sources)):
                for j in range(i + 1, len(sources)):
                    tuples.append((sources[i], sources[j], t, a))
        return tuples

    while True:
        tuples = non_reversibilities()
        if not tuples:
            break
        if len(names) > max_states:
            raise CapacityError("reversibilization exceeded the state budget")
        reach = {}
        for (_, _, q, _) in tuples:
            if q not in reach:
                reach[q] = _reachable(transitions, c.alphabet, q)
        # tuple t is below t' when a source of t' is reachable from t's target
        def is_maximal(tup):
            r = reach[tup[2]]
            for other in tuples:
                if other == tup:
                    continue
                if other[0] in r or other[1] in r:
                    return False
            return True

        maximal = [t for t in tuples if is_maximal(t)]
        assert maximal, "partial order on non-reversibilities has no maximal element"
        q1, q2, q, a = min(
            maximal, key=lambda t: (names[t[0]], names[t[1]], names[t[2]], t[3])
        )
        region = sorted(reach[q], key=lambda s: names[s])
        # sources of the chosen tuple cannot sit in the duplicated region, or
        # the forbidden-construction precondition would have been violated
        assert q1 not in reach[q] and q2 not in reach[q]
        copy_index = {}
        for copy in (0, 1):
            for s in region:
                idx = len(names)
                names.append(f"{names[s]}#{copy}")
                copy_index[(s, copy)] = idx
                if s in accepting:
                    accepting.add(idx)
                if s in halt_accept:
                    halt_accept.add(idx)
                if s in halt_reject:
                    halt_reject.add(idx)
        region_set = set(region)
        # edges inside the region stay within each copy
        for s in region:
            for sym in c.alphabet:
                t = transitions.pop((s, sym), None)
                if t is None:
                    continue
                for copy in (0, 1):
                    transitions[(copy_index[(s, copy)], sym)] = copy_index[(t, copy)]
        # edges from outside: the resolved pair splits, everything else joins copy 0
        for (s, sym), t in list(transitions.items()):
            if s in region_set or t not in region_set:
                continue
            if (s, sym) == (q2, a) and t == q:
                transitions[(s, sym)] = copy_index[(t, 1)]
            else:
                transitions[(s, sym)] = copy_index[(t, 0)]
        if start in region_set:
            start = copy_index[(start, 0)]
        accepting -= region_set
        halt_accept -= region_set
        halt_reject -= region_set
        # drop the now-unreferenced originals by compacting the state list
        keep = [s for s in range(len(names)) if s not in region_set]
        remap = {old: new for new, old in enumerate(keep)}
        names = [names[s] for s in keep]
        transitions = {
            (remap[s], sym): remap[t] for (s, sym), t in transitions.items()
        }
        accepting = {remap[s] for s in accepting}
        halt_accept = {remap[s] for s in halt_accept}
        halt_reject = {remap[s] for s in halt_reject}
        start = remap[start]

    # halt-on-enter form: identity left endmarker, per-state halting sinks
    live = [s for s in range(len(names)) if s not in halt_accept and s not in halt_reject]
    for s in live:
        transitions[(s, LEFT_END)] = s
    for s in live:
        idx = len(names)
        if s in accepting:
            names.append(f"acc({names[s]})")
            halt_accept.add(idx)
        else:
            names.append(f"rej({names[s]})")
            halt_reject.add(idx)
        transitions[(s, RIGHT_END)] = idx

    out = ClassicalAutomaton(
        states=tuple(names),
        alphabet=tuple(c.alphabet),
        start=start,
        accepting=frozenset(halt_accept),
        rejecting=frozenset(halt_reject),
        transitions=transitions,
        halting_mode=HALT_ON_ENTER,
    )
    flag, tuples = is_reversible(out)
    if not flag:
        raise AssertionError(f"reversibilization left non-reversibilities: {tuples[:3]}")
    return out


def to_plain_dfa(c: ClassicalAutomaton) -> ClassicalAutomaton:
    """Unfold a halt-on-enter automaton into an equivalent plain DFA."""
    if c.halting_mode == END_OF_WORD:
        return c
    n = c.n_states
    acc_sink = n
    rej_sink = n + 1
    names = tuple(c.states) + ("(accepted)", "(rejected)")
    transitions = {}
    accepting = set()
    start = c.start
    if start not in c.halting:
        start = c.transitions[(start, LEFT_END)]
    for s in range(n + 2):
        if s == acc_sink or s in c.accepting:
            accepting.add(s)
    for s in range(n + 2):
        for a in c.alphabet:
            if s == acc_sink or (s < n and s in c.accepting):
                transitions[(s, a)] = acc_sink
            elif s == rej_sink or (s < n and s in c.rejecting):
                transitions[(s, a)] = rej_sink
            else:
                transitions[(s, a)] = c.transitions[(s, a)]
    # a live state is accepting iff its right-endmarker move lands on accept
    for s in range(n):
        if s in c.halting:
            continue
        if c.transitions[(s, RIGHT_END)] in c.accepting:
            accepting.add(s)
    return ClassicalAutomaton(
        states=names,
        alphabet=tuple(c.alphabet),
        start=start,
        accepting=frozenset(accepting),
        transitions=transitions,
        halting_mode=END_OF_WORD,
    )


def dfa_equivalent(c1: ClassicalAutomaton, c2: ClassicalAutomaton):
    """Language equality via product-automaton search.

    Returns (True, None) or (False, shortest distinguishing word).
    Halt-on-enter automata are unfolded to plain DFAs first.
    """
    if tuple(c1.alphabet) != tuple(c2.alphabet):
        raise ValueError(f"alphabet mismatch: {c1.alphabet} vs {c2.alphabet}")
    d1 = to_plain_dfa(c1)
    d2 = to_plain_dfa(c2)
    word = _shortest_pair_word(
        d1.transitions,
        d2.transitions,
        d1.alphabet,
        (d1.start, d2.start),
        lambda pair: (pair[0] in d1.accepting) != (pair[1] in d2.accepting),
    )
    return word is None, word
