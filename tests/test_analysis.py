import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter, deque

import numpy as np
import pytest

from qfa import analysis, automata, semantics, serialize
from qfa.analysis import (
    ConstructionWitness,
    dfa_equivalent,
    find_forbidden_construction,
    find_prfa_forbidden_construction,
    minimize_dfa,
    reversibilize,
)
from qfa.automata import HALT_ON_ENTER, LEFT_END, RIGHT_END, ClassicalAutomaton, is_reversible, validate_classical
from qfa.cli import main
from qfa.constructions import astar_bstar_dfa, block_dfa
from qfa.linalg import CapacityError
from tests_support import (
    MonoidElement,
    assert_readers_agree,
    astar_dfa,
    classical,
    classical_to_dict,
    parity_dfa,
    random_halt_on_enter,
    reference_minimize_dfa,
    reference_non_reversibilities,
    reference_reachable,
    sigma_star_dfa,
    table_of,
    to_plain_dfa,
    transition_monoid,
    transitions_of,
    witness_holds,
)


def step_word(delta, state, word):
    """The state that ``word`` takes ``state`` to under the dict ``delta``."""
    for sym in word:
        state = delta[(state, sym)]
    return state


def reachable(c, state):
    delta = transitions_of(c)
    seen = {state}
    todo = [state]
    while todo:
        s = todo.pop()
        for a in c.alphabet:
            t = delta[(s, a)]
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def fate(c, q):
    """Oracle: "acc" or "rej" when every state reachable from q agrees on it, else None."""
    verdicts = {s in c.accepting for s in reachable(c, q)}
    if verdicts == {True}:
        return "acc"
    if verdicts == {False}:
        return "rej"
    return None


def eligible_states(c):
    """Oracle: per state, whether it is neither all-accepting nor all-rejecting."""
    return [fate(c, q) is None for q in range(c.n_states)]


def brute_force_forbidden(c, max_len):
    """Oracle: try every word up to max_len as the connecting word."""
    eligible = eligible_states(c)
    delta = transitions_of(c)
    for q1 in range(c.n_states):
        for q2 in range(c.n_states):
            if q1 == q2 or not eligible[q2]:
                continue
            for length in range(1, max_len + 1):
                for word in itertools.product(c.alphabet, repeat=length):
                    if step_word(delta, q1, word) == q2 and step_word(delta, q2, word) == q2:
                        return (q1, q2, word)
    return None


def brute_force_monoid(c, max_len):
    """Oracle: distinct state mappings of all words up to max_len."""
    seen = {}
    delta = transitions_of(c)
    for length in range(max_len + 1):
        for word in itertools.product(c.alphabet, repeat=length):
            mapping = tuple(step_word(delta, s, word) for s in range(c.n_states))
            if mapping not in seen:
                seen[mapping] = word
    return seen


def parity_ab_dfa():
    """Two states over {a, b}, counting a's mod 2."""
    return classical(
        states=("even", "odd"),
        alphabet=("a", "b"),
        start=0,
        accepting=frozenset({1}),
        transitions={(0, "a"): 1, (1, "a"): 0, (0, "b"): 0, (1, "b"): 1},
    )


def random_dfa(seed, alphabet, min_states, max_states):
    rng = random.Random(seed)
    n = rng.randint(min_states, max_states)
    transitions = {(s, a): rng.randrange(n) for s in range(n) for a in alphabet}
    return classical(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=tuple(alphabet),
        start=0,
        accepting=frozenset(s for s in range(n) if rng.random() < 0.5),
        transitions=transitions,
    )


def random_minimal_dfa(seed):
    return minimize_dfa(random_dfa(seed, "ab", 2, 5))


def reference_shortest_pair_word(t1: dict, t2: dict, alphabet, start: tuple, goal):
    """Oracle: the dict pair search that ``analysis._shortest_pair_word`` replaced.

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


def reference_to_plain_dfa(c):
    """Oracle: the dict unfolding that ``to_plain_dfa`` replaced."""
    if c.halting_mode != HALT_ON_ENTER:
        return c
    delta = transitions_of(c)
    transitions = {(s, a): s for s in c.halting for a in c.alphabet}
    transitions.update((key, t) for key, t in delta.items() if key[1] in c.alphabet)
    accepting = c.accepting | {
        s for (s, sym), t in delta.items() if sym == RIGHT_END and t in c.accepting
    }
    return classical(
        states=tuple(c.states),
        alphabet=tuple(c.alphabet),
        start=c.start if c.start in c.halting else delta[(c.start, LEFT_END)],
        accepting=frozenset(accepting),
        transitions=transitions,
    )


def reference_dfa_equivalent(c1, c2):
    """Oracle: ``dfa_equivalent`` as the dict unfolding and the dict pair search."""
    d1, d2 = reference_to_plain_dfa(c1), reference_to_plain_dfa(c2)
    word = reference_shortest_pair_word(
        transitions_of(d1),
        transitions_of(d2),
        d1.alphabet,
        (d1.start, d2.start),
        lambda pair: (pair[0] in d1.accepting) != (pair[1] in d2.accepting),
    )
    return word is None, word


def per_pair_forbidden(c):
    """Oracle: one forward pair-graph search per (q1, q2), in q1-major order.

    This is how ``find_forbidden_construction`` searched before the merge
    table, O(n^4·|Σ|).
    """
    n = c.n_states
    eligible = eligible_states(c)
    delta = transitions_of(c)
    for q1 in range(n):
        for q2 in range(n):
            if q1 == q2 or not eligible[q2]:
                continue
            x = reference_shortest_pair_word(
                delta, delta, c.alphabet, (q1, q2), lambda pair: pair == (q2, q2)
            )
            if x is not None:
                return ConstructionWitness(q1=c.states[q1], q2=c.states[q2], x=x)
    return None


def reference_reversibilize(c: ClassicalAutomaton, max_states: int = 1000000) -> ClassicalAutomaton:
    """Oracle: ``reversibilize`` before it renumbered once at the end.

    Every round rebuilds the non-reversibilities, tests maximality pairwise
    and compacts the state list.  The docstring below is the original's.

    Turn a minimal DFA without the forbidden construction into an RFA.

    All-accepting and all-rejecting states become halting states first; then
    non-reversibilities (two states entering the same state on the same
    symbol) are eliminated by duplicating the offending state together with
    everything reachable from it, always picking a maximal non-reversibility
    so the total count strictly decreases.  Finally the automaton is put in
    halt-on-enter form: the left endmarker acts as the identity and the right
    endmarker routes every surviving state to a fresh accepting or rejecting
    sink of its own.
    """
    analysis._require_plain(c, "reversibilize")
    if find_forbidden_construction(c) is not None:
        raise analysis.NotReversibilizableError(
            "minimal automaton contains the forbidden construction; no reversible equivalent exists"
        )

    names = list(c.states)
    accepting = set(c.accepting)
    transitions = transitions_of(c)
    start = c.start

    # states whose every continuation is accepted (or rejected) halt immediately
    halt_accept = set()
    halt_reject = set()
    for s in range(len(names)):
        if fate(c, s) == "acc":
            halt_accept.add(s)
        elif fate(c, s) == "rej":
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
                reach[q] = reference_reachable(transitions, c.alphabet, q)
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

    out = classical(
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


def quadratic_prfa_forbidden(c, cap=analysis.DEFAULT_MONOID_CAP):
    """Oracle: every (x, y) pair of monoid elements in (len, word) order, O(|M|^2·n).

    This is how ``find_prfa_forbidden_construction`` searched before the
    merge table.
    """
    n = c.n_states
    eligible = eligible_states(c)
    elements = transition_monoid(c, cap)
    elements.sort(key=lambda e: (len(e.word), e.word))

    def power_returns(f, q2):
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


def dict_lookup_monoid(c, cap=analysis.DEFAULT_MONOID_CAP):
    """Oracle: ``transition_monoid`` before the per-letter image lists.

    Each image is built by one transition-dict lookup per state.
    """
    n = c.n_states
    delta = transitions_of(c)
    identity = tuple(range(n))
    elements = {identity: ()}
    queue = deque([identity])
    while queue:
        mapping = queue.popleft()
        word = elements[mapping]
        for a in c.alphabet:
            nxt = tuple(delta[(mapping[s], a)] for s in range(n))
            if nxt not in elements:
                if len(elements) >= cap:
                    raise CapacityError(f"transition monoid exceeds cap of {cap} elements")
                elements[nxt] = word + (a,)
                queue.append(nxt)
    return [MonoidElement(mapping=m, word=w) for m, w in elements.items()]


def brute_force_merges(c):
    """Oracle: the pairs (q1, q2) that some word of length <= n^2 sends to (q2, q2).

    The words of each length are kept as the set of state mappings they
    induce, which is all the condition depends on.  A shortest merging word
    visits each of the n^2 pairs at most once, so n^2 letters suffice.
    """
    n = c.n_states
    delta = transitions_of(c)
    layer = {tuple(range(n))}
    mappings = set(layer)
    for _ in range(n * n):
        layer = {
            tuple(delta[(f[s], a)] for s in range(n)) for f in layer for a in c.alphabet
        }
        mappings |= layer
    return {(q1, f[q1]) for f in mappings for q1 in range(n) if f[f[q1]] == f[q1]}


def letters_dfa(n, alphabet, letters, accepting):
    """DFA on s0..s{n-1} whose letter alphabet[i] maps s to letters[i][s]."""
    return classical(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=tuple(alphabet),
        start=0,
        accepting=frozenset(accepting),
        transitions={(s, a): f[s] for a, f in zip(alphabet, letters) for s in range(n)},
    )


def closure_size(n, letters):
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        f = todo.pop()
        for g in letters:
            h = tuple(g[f[s]] for s in range(n))
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


def symmetric_dfa(rng, n):
    """Two random permutations generating all of S_n, and a proper accepting set."""
    order = 1
    for i in range(2, n + 1):
        order *= i
    while True:
        letters = [tuple(rng.sample(range(n), n)) for _ in range(2)]
        if closure_size(n, letters) == order:
            break
    return letters_dfa(n, "ab", letters, rng.sample(range(n), rng.randint(1, n - 1)))


def full_transformation_dfa(rng, n):
    """S_n on a and b plus one merging letter c: all n^n maps."""
    perm = symmetric_dfa(rng, n)
    letters = [tuple(column) for column in perm.table.T.tolist()]
    i, j = rng.sample(range(n), 2)
    merge = list(range(n))
    merge[i] = j
    letters.append(tuple(merge))
    return letters_dfa(n, "abc", letters, perm.accepting)


def differential_corpus():
    """Minimal DFAs on which both detectors must match their old searches."""
    corpus = [
        minimize_dfa(random_dfa(seed, alphabet, 1, 6))
        for alphabet in ("ab", "abc", "ba")
        for seed in range(110)
    ]
    corpus += [minimize_dfa(block_dfa(m)) for m in range(1, 11)]
    rng = random.Random(5)
    corpus += [symmetric_dfa(rng, n) for n in (5, 6) for _ in range(2)]
    corpus += [full_transformation_dfa(rng, n) for n in (4, 5, 6)]
    return corpus


def counterexample_pairs():
    """Pairs of automata, plain and halt-on-enter, told apart by words of many lengths."""
    rfas = [random_halt_on_enter(seed) for seed in range(30)]
    pairs = list(itertools.combinations(rfas, 2))
    pairs += [(rfas[1], random_dfa(seed, "ab", 1, 6)) for seed in range(20)]
    # one flipped halting verdict of a block-family RFA shows only on longer words
    rfa = reversibilize(minimize_dfa(block_dfa(2)))
    for s in sorted(rfa.halting):
        flipped = dataclasses.replace(
            rfa, accepting=rfa.accepting ^ {s}, rejecting=rfa.rejecting ^ {s}
        )
        pairs += [(rfa, flipped), (block_dfa(2), flipped)]
    return pairs


def words_up_to(alphabet, max_len):
    return itertools.chain.from_iterable(
        itertools.product(alphabet, repeat=k) for k in range(max_len + 1)
    )


def minimize_oracle_corpus():
    """DFAs on which ``minimize_dfa`` must match the dict minimizer it replaced.

    Seeded random DFAs of 1-40 states over 1-3 letters, unsorted alphabets
    included, with any start state and any share of accepting states; the
    block family; the differential corpus; and edge cases: unreachable
    states, some without transitions, all or no states accepting, a single
    state, and an empty alphabet.
    """
    rng = random.Random(2101)
    corpus = []
    for _ in range(3000):
        n, alphabet = rng.randint(1, 40), rng.choice(("a", "ab", "ba", "abc", "cab"))
        share = rng.choice((0.0, 0.2, 0.5, 1.0))
        corpus.append(classical(
            states=tuple(f"s{i}" for i in range(n)),
            alphabet=tuple(alphabet),
            start=rng.randrange(n),
            accepting=frozenset(s for s in range(n) if rng.random() < share),
            transitions={(s, a): rng.randrange(n) for s in range(n) for a in alphabet},
        ))
    corpus += [block_dfa(m) for m in range(1, 13)]
    corpus += differential_corpus()
    # states 3 and 4 are unreachable from the start, and 4 has no transitions
    corpus.append(classical(
        states=("p", "q", "r", "u", "v"),
        alphabet=("b", "a"),
        start=2,
        accepting=frozenset({0, 4}),
        transitions={(0, "a"): 1, (0, "b"): 2, (1, "a"): 0, (1, "b"): 1, (2, "a"): 0, (2, "b"): 2,
                     (3, "a"): 4, (3, "b"): 0},
    ))
    corpus.append(classical(
        states=("only",), alphabet=("a",), start=0, accepting=frozenset(), transitions={(0, "a"): 0},
    ))
    corpus.append(classical(
        states=("x", "y"), alphabet=(), start=1, accepting=frozenset({1}), transitions={},
    ))
    return corpus


class TestMinimizeDfa:
    def test_matches_the_dict_minimizer(self):
        corpus = minimize_oracle_corpus()
        assert len(corpus) == 3000 + 12 + 347 + 3
        for c in corpus:
            got, want = minimize_dfa(c), reference_minimize_dfa(c)
            assert got == want, c
            assert got.table.dtype == want.table.dtype and np.array_equal(got.table, want.table), c

    def test_missing_reachable_transition_raises(self):
        c = classical(
            states=("s0", "s1", "s2"),
            alphabet=("a", "b"),
            start=0,
            accepting=frozenset({1}),
            transitions={(0, "a"): 1, (0, "b"): 0, (1, "a"): 0},
        )
        with pytest.raises(ValueError, match="s1 has none on 'b'"):
            minimize_dfa(c)
        # state s2 is unreachable, so its missing row is not read
        complete = dataclasses.replace(c, table=table_of(c, {**transitions_of(c), (1, "b"): 1}))
        assert minimize_dfa(complete).n_states == 2

    def test_classical_automata_hold_only_their_table(self, tmp_path, capsys):
        path, out = str(tmp_path / "blocks.json"), str(tmp_path / "rfa.json")
        serialize.save(block_dfa(10), path)
        assert main(["analyze", path, "--reversibilize", out]) == 0
        assert main(["equiv", path, out]) == 0
        assert "equivalent: yes" in capsys.readouterr().out
        for name in ("transitions", "from_table", "strays"):
            assert not hasattr(ClassicalAutomaton, name), name
        assert not hasattr(automata, "_Transitions")
        rfa = serialize.load(out)
        assert semantics.run_dfa(rfa, "xy" * 10) and not semantics.run_dfa(rfa, "xz")
        assert dfa_equivalent(serialize.load(path), rfa) == (True, None)
        fields = {f.name for f in dataclasses.fields(ClassicalAutomaton)}
        assert set(vars(rfa)) <= fields | {"halting", "_analysis_facts"}, sorted(vars(rfa))

    def test_already_minimal(self):
        m = minimize_dfa(astar_bstar_dfa())
        assert m.n_states == 3
        assert minimize_dfa(m).n_states == 3

    def test_block_dfa_m2(self):
        assert minimize_dfa(block_dfa(2)).n_states == 8

    def test_duplicated_states_merge(self):
        # three copies of the a*b* automaton glued by identical behavior
        base = astar_bstar_dfa()
        n = base.n_states
        transitions = {}
        for copy in range(2):
            for (s, a), t in transitions_of(base).items():
                # odd copies jump into the next copy to keep all states reachable
                target = t + n * ((copy + 1) % 2)
                transitions[(s + n * copy, a)] = target
        dup = classical(
            states=tuple(f"c{i}" for i in range(2 * n)),
            alphabet=("a", "b"),
            start=0,
            accepting=frozenset({0, 1, n, n + 1}),
            transitions=transitions,
        )
        merged = minimize_dfa(dup)
        assert merged.n_states == 3
        same, _ = dfa_equivalent(merged, base)
        assert same

    def test_language_preserved(self):
        for seed in range(8):
            dfa = random_minimal_dfa(seed)
            same, counter = dfa_equivalent(dfa, minimize_dfa(dfa))
            assert same, counter


class TestForbiddenConstruction:
    def test_astar_bstar_witness(self):
        w = find_forbidden_construction(astar_bstar_dfa())
        assert w is not None
        assert (w.q1, w.q2, w.x) == ("qa", "qb", ("b",))
        assert witness_holds(astar_bstar_dfa(), w)

    def test_astar_none(self):
        assert find_forbidden_construction(astar_dfa()) is None

    def test_sigma_star_none(self):
        assert find_forbidden_construction(sigma_star_dfa()) is None

    def test_parity_none(self):
        assert find_forbidden_construction(parity_dfa()) is None
        assert find_forbidden_construction(parity_ab_dfa()) is None

    def test_matches_brute_force_on_corpus(self):
        corpus = [
            astar_bstar_dfa(),
            astar_dfa(),
            sigma_star_dfa(),
            parity_ab_dfa(),
        ] + [random_minimal_dfa(seed) for seed in range(12)]
        for dfa in corpus:
            assert dfa.n_states <= 5
            got = find_forbidden_construction(dfa)
            expected = brute_force_forbidden(dfa, max_len=dfa.n_states**2)
            assert (got is None) == (expected is None), dfa.states
            if got is not None:
                assert witness_holds(dfa, got)


class TestDetectorsAgainstOldSearches:
    @pytest.fixture(scope="class")
    def corpus(self):
        return differential_corpus()

    def test_corpus_size(self, corpus):
        assert len(corpus) >= 340
        witnesses = sum(find_prfa_forbidden_construction(c) is not None for c in corpus)
        assert 100 <= witnesses <= len(corpus) - 100

    def test_pair_search_matches_the_dict_search_on_every_pair(self, corpus):
        """Every (q1, q2) start, not only the detector's first, on the smaller DFAs."""
        for dfa in corpus:
            if dfa.n_states > 6:
                continue
            delta = transitions_of(dfa)
            for q1, q2 in itertools.permutations(range(dfa.n_states), 2):
                got = analysis._shortest_pair_word(
                    dfa.table, dfa.table, dfa.alphabet, (q1, q2),
                    lambda p1, p2: (p1 == q2) & (p2 == q2),
                )
                want = reference_shortest_pair_word(
                    delta, delta, dfa.alphabet, (q1, q2),
                    lambda pair: pair == (q2, q2),
                )
                assert got == want, (dfa, q1, q2)

    def test_single_word_matches_per_pair_search(self, corpus):
        for dfa in corpus:
            got = find_forbidden_construction(dfa)
            assert got == per_pair_forbidden(dfa), dfa
            assert got is None or witness_holds(dfa, got)

    def test_two_word_matches_quadratic_search(self, corpus):
        for dfa in corpus:
            got = find_prfa_forbidden_construction(dfa)
            assert got == quadratic_prfa_forbidden(dfa), dfa
            assert got is None or witness_holds(dfa, got)

    def test_monoid_matches_dict_lookup_enumeration(self, corpus):
        for dfa in corpus:
            want = dict_lookup_monoid(dfa)
            assert transition_monoid(dfa) == want, dfa
            if len(want) > 1000:
                continue
            # the cap trips at exactly the same element count
            for cap in {1, len(want) // 2, len(want) - 1} - {0, len(want)}:
                with pytest.raises(CapacityError):
                    dict_lookup_monoid(dfa, cap)
                with pytest.raises(CapacityError):
                    transition_monoid(dfa, cap)
            assert transition_monoid(dfa, len(want)) == want

    def test_reversibilize_matches_per_round_compaction(self, corpus):
        outcomes = []
        for dfa in corpus:
            try:
                want = classical_to_dict(reference_reversibilize(dfa))
            except analysis.NotReversibilizableError:
                with pytest.raises(analysis.NotReversibilizableError):
                    reversibilize(dfa)
                outcomes.append(False)
                continue
            assert classical_to_dict(reversibilize(dfa)) == want, dfa
            outcomes.append(True)
        assert (outcomes.count(True), outcomes.count(False)) == (185, 162)

    def test_merge_table_matches_word_search(self):
        for alphabet in ("ab", "abc"):
            for seed in range(60):
                dfa = random_dfa(seed, alphabet, 1, 4)
                merge = analysis._merge_table(dfa)
                n = dfa.n_states
                got = {(q1, q2) for q1 in range(n) for q2 in range(n) if merge[q1][q2]}
                assert got == brute_force_merges(dfa), (alphabet, seed)


class TestPrfaForbiddenConstruction:
    def test_astar_bstar_witness(self):
        w = find_prfa_forbidden_construction(astar_bstar_dfa())
        assert w is not None
        assert (w.q1, w.q2, w.x, w.y) == ("qa", "qb", ("a",), ("b",))
        assert witness_holds(astar_bstar_dfa(), w)
        # orbit check: reading a from qb reaches the dead state and stays there
        c = astar_bstar_dfa()
        assert step_word(transitions_of(c), 1, "a") == 2
        assert step_word(transitions_of(c), 2, "a") == 2

    def test_astar_none(self):
        assert find_prfa_forbidden_construction(astar_dfa()) is None

    def test_single_state_none(self):
        assert find_prfa_forbidden_construction(sigma_star_dfa()) is None

    def test_cap_error_is_distinct(self):
        with pytest.raises(CapacityError):
            find_prfa_forbidden_construction(block_dfa(3), cap=4)


class TestTransitionMonoid:
    def test_single_state(self):
        elements = transition_monoid(sigma_star_dfa())
        assert len(elements) == 1
        assert elements[0].word == ()

    def test_parity_two_elements(self):
        assert len(transition_monoid(parity_dfa())) == 2

    def test_matches_brute_force(self):
        for dfa in (astar_bstar_dfa(), parity_ab_dfa(), astar_dfa()):
            got = {e.mapping: e.word for e in transition_monoid(dfa)}
            oracle = brute_force_monoid(dfa, max_len=6)
            assert got == oracle

    def test_cap(self):
        with pytest.raises(CapacityError):
            transition_monoid(block_dfa(3), cap=10)
        # the identity alone is one element, so it is over a cap of 0
        for cap in (0, -3):
            with pytest.raises(CapacityError):
                transition_monoid(sigma_star_dfa(), cap=cap)
        assert len(transition_monoid(sigma_star_dfa(), cap=1)) == 1


def relabeled(c, alphabet):
    """The same DFA with its letters renamed, in order, to ``alphabet``: the
    table's columns keep their place."""
    return dataclasses.replace(c, alphabet=tuple(alphabet))


class TestArrayMonoid:
    """The array enumeration and scan against the dict BFS and the quadratic search."""

    @staticmethod
    def check(dfa, cap=analysis.DEFAULT_MONOID_CAP):
        want = dict_lookup_monoid(dfa, cap)
        assert transition_monoid(dfa, cap) == want
        got = find_prfa_forbidden_construction(dfa, cap)
        assert got == quadratic_prfa_forbidden(dfa, cap)
        assert got is None or witness_holds(dfa, got)
        # the scan visits the elements in (len(word), word) order
        _, parent, letter, starts = analysis._monoid(dfa, cap)
        order = analysis._scan_order(dfa.alphabet, parent, letter, starts)
        assert [want[i] for i in order] == sorted(want, key=lambda e: (len(e.word), e.word))
        return got

    @pytest.mark.parametrize("m", range(5, 11))
    def test_block_family_keys_rows_by_bytes(self, m):
        dfa = minimize_dfa(block_dfa(m))
        assert dfa.n_states > analysis._PACKED_KEY_MAX_STATES
        self.check(dfa)

    @pytest.mark.parametrize(
        "alphabet", [("b", "a"), ("c", "a", "b"), ("ba", "b", "a"), ("b", "ab", "a", "aa")],
    )
    def test_unsorted_and_multi_character_alphabets(self, alphabet):
        rng = random.Random(13)
        corpus = [minimize_dfa(random_dfa(seed, alphabet, 2, 5)) for seed in range(40)]
        corpus.append(relabeled(symmetric_dfa(rng, 5), alphabet[:2]))
        if len(alphabet) >= 3:
            corpus.append(minimize_dfa(relabeled(block_dfa(4), alphabet[:3])))
            corpus.append(relabeled(full_transformation_dfa(rng, 4), alphabet[:3]))
        witnesses = [self.check(dfa) for dfa in corpus]
        assert any(w is not None for w in witnesses)

    def test_caps_at_the_monoid_size(self):
        rng = random.Random(7)
        s6 = symmetric_dfa(rng, 6)
        full = full_transformation_dfa(rng, 5)
        for dfa, size in ((s6, 720), (full, 5**5)):
            with pytest.raises(CapacityError):
                dict_lookup_monoid(dfa, size - 1)
            with pytest.raises(CapacityError):
                transition_monoid(dfa, size - 1)
            with pytest.raises(CapacityError):
                find_prfa_forbidden_construction(dfa, size - 1)
            self.check(dfa, size)
            assert len(transition_monoid(dfa, size)) == size


class TestReversibilize:
    def test_parity_needs_no_duplication(self):
        r = reversibilize(parity_dfa())
        live = [s for s in range(r.n_states) if s not in r.halting]
        assert len(live) == parity_dfa().n_states
        assert is_reversible(r)[0]
        same, _ = dfa_equivalent(parity_dfa(), r)
        assert same

    def test_forbidden_construction_rejected(self):
        with pytest.raises(analysis.NotReversibilizableError):
            reversibilize(astar_bstar_dfa())

    def test_analyze_decides_each_fact_once(self, monkeypatch, tmp_path, capsys):
        # both detectors and the precondition of reversibilize share one
        # fates pair and one merge table of the minimal DFA
        calls = Counter()
        for name in ("_fates", "_merge_table"):
            fn = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda c, fn=fn, name=name: calls.update([name]) or fn(c))
        path = tmp_path / "blocks.json"
        serialize.save(block_dfa(3), str(path))
        assert main(["analyze", str(path), "--reversibilize", str(tmp_path / "rfa.json")]) == 0
        assert calls == {"_fates": 1, "_merge_table": 1}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_block_family_blowup(self, m):
        dfa = block_dfa(m)
        r = reversibilize(minimize_dfa(dfa))
        assert is_reversible(r)[0]
        assert r.n_states >= 3 * (2**m - 1)
        same, counter = dfa_equivalent(dfa, r)
        assert same, counter

    def test_astar(self):
        r = reversibilize(astar_dfa())
        assert is_reversible(r)[0]
        same, _ = dfa_equivalent(astar_dfa(), r)
        assert same

    def test_outputs_run_as_halting_automata(self):
        r = reversibilize(minimize_dfa(block_dfa(1)))
        for word in itertools.chain.from_iterable(
            itertools.product("xyz", repeat=k) for k in range(5)
        ):
            assert semantics.run_dfa(r, word) == semantics.run_dfa(block_dfa(1), word)


# SHA-256 of the file ``serialize.save`` writes for reversibilize(minimize_dfa(block_dfa(m)))
WRITTEN_RFA_SHA256 = {
    1: "717d62e0698b0eccf88cfa84b2a7445365dea9f609e1b325fef60b8f31a31314",
    2: "51e240754360885524b5611c1498fe66b5467bb0e922fa48bd2522cd7a773474",
    3: "29878d169e79924d46c555154e5cd61be6e4c24ca71ab6bdb2b362fc03dd54b7",
    4: "7a84e0f5268e5fd9f2a5b599bb8294515339e47a4e4c54c22bcaa20d686272fd",
    5: "645f8b27f494318876105941b99b4441de2fb0b448890f8bff5f6a56b725fb9e",
    6: "bceba9c62390252180edb9334310809d1c025514e6b1c7e70e9e10a4b129155b",
    7: "e28d8bb054fac3457639cb66fca5216a492af8a63bc0d21ab41c1ff43a5f8ca3",
    8: "4bb231a7ef5ca7ddfe5a09688a9c4a18485f8c2a3d1e618af8275ceb2cc0425a",
}


@pytest.mark.parametrize("m", sorted(WRITTEN_RFA_SHA256))
def test_written_block_rfa_bytes_are_pinned(m, tmp_path):
    path = tmp_path / "rfa.json"
    serialize.save(reversibilize(minimize_dfa(block_dfa(m))), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITTEN_RFA_SHA256[m]


def oracle_bytes(c) -> bytes:
    """What ``serialize.save`` wrote before it streamed from the table."""
    return (json.dumps(classical_to_dict(c), indent=1) + "\n").encode("utf-8")


class TestTableFirstAutomata:
    """Automata built from a table: ``is_reversible`` and the reader read the
    table, and agree with the dict passes they replaced."""

    @staticmethod
    def dict_tuples(c):
        return [
            (c.states[q1], c.states[q2], c.states[q], a)
            for q1, q2, q, a in reference_non_reversibilities(transitions_of(c))
        ]

    @staticmethod
    def merging_automata():
        """Non-reversibilities in several (q, a) groups, some of three or more sources."""
        funnel = classical(
            states=("p", "q", "r", "s", "t"),
            alphabet=("b", "a"),
            start=0,
            accepting=frozenset({4}),
            transitions={(s, a): t for s in range(5) for a, t in (("a", 4), ("b", s // 2))},
        )
        rng = random.Random(7)
        rfas = []
        for seed in range(30):
            n = rng.randint(3, 9)
            rfas.append(classical(
                states=tuple(f"s{(i * 7) % n}_{i}" for i in range(n)),
                alphabet=("c", "a", "b"),
                start=0,
                accepting=frozenset({n - 1}),
                rejecting=frozenset({n - 2}),
                transitions={
                    (s, a): rng.randrange(min(3, n))
                    for s in range(n - 2)
                    for a in ("a", "b", "c", LEFT_END, RIGHT_END)
                },
                halting_mode=HALT_ON_ENTER,
            ))
        return [funnel] + rfas

    def test_is_reversible_matches_the_dict_pass(self):
        corpus = differential_corpus()
        assert len(corpus) == 347
        corpus += [reversibilize(minimize_dfa(block_dfa(m))) for m in range(1, 9)]
        corpus += self.merging_automata()
        seen_large_group = False
        for c in corpus:
            flag, tuples = is_reversible(c)
            assert tuples == self.dict_tuples(c), c
            assert flag == (not tuples)
            seen_large_group |= len({t[:2] for t in tuples}) > len({t[2:] for t in tuples})
        assert seen_large_group
        funnel = self.merging_automata()[0]
        assert is_reversible(funnel)[1][:4] == [
            ("p", "q", "p", "b"), ("r", "s", "q", "b"), ("p", "q", "t", "a"), ("p", "r", "t", "a"),
        ]

    def test_dict_builder_round_trips(self):
        rfa = reversibilize(minimize_dfa(block_dfa(3)))
        rebuilt = classical(
            states=rfa.states, alphabet=rfa.alphabet, start=rfa.start, accepting=rfa.accepting,
            rejecting=rfa.rejecting, transitions=transitions_of(rfa), halting_mode=rfa.halting_mode,
        )
        assert rebuilt.table.dtype == np.int32 and rebuilt == rfa
        assert dataclasses.replace(rfa, start=1).table is rfa.table

    def test_written_files_read_back(self, tmp_path):
        """Files of the format-v1 writer, whose bytes are pinned above, read as before."""
        path = tmp_path / "c.json"
        automata = [reversibilize(minimize_dfa(block_dfa(m))) for m in range(1, 9)]
        automata += differential_corpus()[::7] + [random_halt_on_enter(seed) for seed in range(20)]
        for c in automata:
            serialize.save(c, str(path))
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert_readers_agree(doc)
            assert classical_to_dict(serialize.load(str(path))) == classical_to_dict(c)


class TestClassicalWriter:
    """``serialize.save`` writes classical automata byte for byte as ``json.dump`` of the dict."""

    def assert_same_bytes(self, c, path):
        serialize.save(c, str(path))
        assert path.read_bytes() == oracle_bytes(c), c

    @pytest.mark.parametrize("m", range(1, 13))
    def test_block_rfas(self, m, tmp_path):
        self.assert_same_bytes(reversibilize(minimize_dfa(block_dfa(m))), tmp_path / "rfa.json")

    def test_differential_corpus(self, tmp_path):
        corpus = differential_corpus()
        assert len(corpus) == 347
        for c in corpus + [block_dfa(3), astar_bstar_dfa()]:
            self.assert_same_bytes(c, tmp_path / "dfa.json")

    def test_random_halt_on_enter(self, tmp_path):
        for seed in range(80):
            self.assert_same_bytes(random_halt_on_enter(seed), tmp_path / "rfa.json")

    def test_empty_parts(self, tmp_path):
        empty = classical(
            states=("s",), alphabet=(), start=0, accepting=frozenset(), transitions={}
        )
        halted = classical(
            states=("s", "t"), alphabet=("a",), start=0, accepting=frozenset({0}),
            rejecting=frozenset({1}), transitions={}, halting_mode=HALT_ON_ENTER,
        )
        partial = dataclasses.replace(
            reversibilize(block_dfa(2)), accepting=frozenset(), rejecting=frozenset()
        )
        for c in (empty, halted, partial):
            self.assert_same_bytes(c, tmp_path / "c.json")

    def test_names_that_need_escapes(self, tmp_path):
        names = ('q"1', "back\\slash", "caf\u00e9", "\U0001d538", "tab\tnew\nline", "")
        symbols = ("\u00e9", '"', "\\", "\U0001d539", "b", "a")
        transitions = {(s, a): (s + k) % len(names) for s in range(len(names)) for k, a in enumerate(symbols)}
        c = classical(
            states=names, alphabet=symbols, start=2, accepting=frozenset({0, 3}),
            transitions=transitions,
        )
        self.assert_same_bytes(c, tmp_path / "c.json")
        no_endmarker_moves = np.pad(c.table, ((0, 0), (0, 2)), constant_values=-1)
        rfa = dataclasses.replace(c, rejecting=frozenset({1}), halting_mode=HALT_ON_ENTER, table=no_endmarker_moves)
        self.assert_same_bytes(rfa, tmp_path / "r.json")
        assert serialize.load(str(tmp_path / "c.json")) == c

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"states": ("s", 1)}, "state names and symbols must be strings"),
            ({"alphabet": ("a", 2)}, "state names and symbols must be strings"),
            ({"states": ("s", "s")}, "duplicate state names"),
            ({"table": np.array([[1, 0], [0, 1]], dtype=np.int32)}, "names no state or symbol"),
            ({"table": np.array([[1], [2]], dtype=np.int32)}, "names no state or symbol"),
            ({"table": np.array([[1], [-2]], dtype=np.int32)}, "names no state or symbol"),
        ],
        ids=["int-name", "int-symbol", "repeated-name", "wrong-shape", "invalid-target", "negative-target"],
    )
    def test_refuses_what_no_file_can_hold(self, tmp_path, change, message):
        c = dataclasses.replace(
            classical(
                states=("s", "t"), alphabet=("a",), start=0, accepting=frozenset({1}),
                transitions={(0, "a"): 1, (1, "a"): 0},
            ),
            **change,
        )
        path = tmp_path / "c.json"
        with pytest.raises(serialize.FileFormatError, match=message):
            serialize.save(c, str(path))
        assert not path.exists()


class TestReversibilizeBudget:
    """The state budget counts live states at the start of each round."""

    @pytest.fixture(scope="class")
    def largest_checked(self):
        """The largest state count the oracle checks against its budget on block_dfa(4)."""
        dfa = minimize_dfa(block_dfa(4))

        def fits(budget):
            try:
                reference_reversibilize(dfa, max_states=budget)
            except CapacityError:
                return False
            return True

        lo, hi = 0, reference_reversibilize(dfa).n_states
        while lo < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid + 1
        assert lo > dfa.n_states  # the cap must trip after some round, not before the first
        return lo

    def test_cap_trips_in_the_same_round(self, monkeypatch, largest_checked):
        dfa = minimize_dfa(block_dfa(4))
        monkeypatch.setattr(analysis, "MAX_REVERSIBILIZED_STATES", largest_checked)
        assert classical_to_dict(reversibilize(dfa)) == classical_to_dict(
            reference_reversibilize(dfa)
        )
        monkeypatch.setattr(analysis, "MAX_REVERSIBILIZED_STATES", largest_checked - 1)
        with pytest.raises(CapacityError):
            reversibilize(dfa)

    def test_cli_exits_3_at_the_cap(self, monkeypatch, tmp_path, capsys, largest_checked):
        path = tmp_path / "blocks.json"
        serialize.save(block_dfa(4), str(path))
        monkeypatch.setattr(analysis, "MAX_REVERSIBILIZED_STATES", largest_checked - 1)
        assert main(["analyze", str(path), "--reversibilize", str(tmp_path / "rfa.json")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestPlainUnfolding:
    """``to_plain_dfa`` must accept exactly what ``run_dfa`` accepts in halt-on-enter mode."""

    def test_matches_the_dict_unfolding(self):
        rfas = [random_halt_on_enter(seed) for seed in range(80)]
        rfas += [reversibilize(minimize_dfa(block_dfa(m))) for m in (1, 2, 3)]
        # rows the validator refuses unfold as before: a halting state's own
        # edges beat its self-loops, and a missing live edge stays missing
        for seed in range(40):
            rng = random.Random(seed)
            rfa = random_halt_on_enter(seed)
            transitions = transitions_of(rfa)
            for s in rfa.halting:
                transitions[(s, rng.choice("ab$"))] = rng.randrange(rfa.n_states)
            for key in rng.sample(sorted(transitions), len(transitions) // 4):
                if key != (rfa.start, LEFT_END):
                    del transitions[key]
            rfas.append(dataclasses.replace(rfa, table=table_of(rfa, transitions)))
        for rfa in rfas:
            got, want = to_plain_dfa(rfa), reference_to_plain_dfa(rfa)
            assert got == want and got.table.dtype == want.table.dtype, rfa

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_reversibilized_block_family(self, m):
        rfa = reversibilize(block_dfa(m))
        plain = to_plain_dfa(rfa)
        for word in words_up_to("xyz", 7):
            assert semantics.run_dfa(rfa, word) == semantics.run_dfa(plain, word), word

    def test_random_halt_on_enter(self):
        for seed in range(80):
            rfa = random_halt_on_enter(seed)
            assert validate_classical(rfa) == []
            plain = to_plain_dfa(rfa)
            for word in words_up_to("ab", 7):
                assert semantics.run_dfa(rfa, word) == semantics.run_dfa(plain, word), (seed, word)


class TestDfaEquivalent:
    def test_reflexive(self):
        c = astar_bstar_dfa()
        assert dfa_equivalent(c, c) == (True, None)

    def test_counterexample_is_shortest(self):
        same, counter = dfa_equivalent(astar_bstar_dfa(), astar_dfa())
        assert not same
        assert counter == ("b",)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            dfa_equivalent(astar_bstar_dfa(), parity_dfa())

    def test_counterexamples_on_halt_on_enter_inputs(self):
        """The word is the shortest, least in alphabet order, that the runs tell apart."""

        def brute_force_counterexample(c1, c2):
            for word in words_up_to(c1.alphabet, 6):
                if semantics.run_dfa(c1, word) != semantics.run_dfa(c2, word):
                    return word
            return None

        lengths = set()
        for c1, c2 in counterexample_pairs():
            same, word = dfa_equivalent(c1, c2)
            expected = brute_force_counterexample(c1, c2)
            if expected is None:
                assert same or len(word) > 6, (c1, c2, word)
            else:
                assert (same, word) == (False, expected), (c1, c2)
                lengths.add(len(word))
        assert lengths >= {0, 1, 2, 3, 4, 5}

    def test_matches_the_dict_search(self):
        """The level-synchronous array search finds the dict search's word."""
        corpus = differential_corpus()
        pairs = counterexample_pairs()
        pairs += [(block_dfa(m), reversibilize(minimize_dfa(block_dfa(m)))) for m in range(1, 6)]
        pairs += [(c, minimize_dfa(c)) for c in corpus[:40]]
        pairs += [(c1, c2) for c1, c2 in zip(corpus, corpus[1:]) if c1.alphabet == c2.alphabet]
        words = Counter()
        for c1, c2 in pairs:
            got = dfa_equivalent(c1, c2)
            assert got == reference_dfa_equivalent(c1, c2), (c1, c2)
            words[len(got[1]) if got[1] is not None else None] += 1
        assert words[None] >= 50 and len(words) >= 6

    def test_needs_every_transition(self):
        partial = dataclasses.replace(astar_dfa(), table=table_of(astar_dfa(), {(0, "a"): 0}))
        with pytest.raises(ValueError, match="every transition"):
            dfa_equivalent(astar_dfa(), partial)

    def test_unfolds_halting_automata(self):
        r = reversibilize(minimize_dfa(block_dfa(2)))
        same, _ = dfa_equivalent(block_dfa(2), r)
        assert same
        plain = to_plain_dfa(r)
        assert plain.halting_mode == "end-of-word"


class TestWitnessReplay:
    def test_bogus_witness_rejected(self):
        c = astar_bstar_dfa()
        assert not witness_holds(c, ConstructionWitness(q1="qa", q2="qb", x=("a",)))
        assert not witness_holds(
            c, ConstructionWitness(q1="qa", q2="qb", x=("b",), y=("b",))
        )
