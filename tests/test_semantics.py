import dataclasses
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfa import automata, linalg, semantics
from qfa.analysis import reversibilize
from qfa.automata import LEFT_END, RIGHT_END, QuantumAutomaton
from qfa.automata import prfa_to_qfa
from qfa.constructions import (
    amplified_rotation,
    astar_bstar_dfa,
    astar_bstar_qfa,
    block_dfa,
    equality_qfa,
    example_qfa,
    modp_qfa,
    modp_qfa_amplified,
    parity_prfa_trio,
    random_prfa,
    rotation_automaton,
    solve_success_probability,
)
from qfa.semantics import (
    run_dfa,
    run_measure_many,
    run_measure_once,
    run_multiscan,
    run_prefixes,
    run_prfa,
)


from tests_support import (
    astar_dfa,
    partial_row_prfa,
    random_halt_on_enter,
    random_operator,
    random_qfa,
    random_unitary,
    reference_run_dfa,
    sample_prfa,
    table_of,
    transitions_of,
)


class TestRunMeasureMany:
    def test_worked_example_aa(self):
        out = run_measure_many(example_qfa(), "aa")
        assert out.p_acc == pytest.approx(0.25, abs=1e-12)
        assert out.p_rej == pytest.approx(0.75, abs=1e-12)
        assert out.p_non == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_empty_word(self):
        # the right endmarker sends the start state straight to rejection
        out = run_measure_many(example_qfa(), "")
        assert out.p_acc == 0.0
        assert out.p_rej == pytest.approx(1.0, abs=1e-12)

    def test_astar_bstar_case3_word(self):
        p = solve_success_probability()
        out = run_measure_many(astar_bstar_qfa(), "ba")
        assert out.p_acc == pytest.approx(p**3, abs=1e-12)
        assert out.p_rej == pytest.approx(1.0 - p**3, abs=1e-12)
        assert out.p_acc == pytest.approx(0.317673, abs=1e-6)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            run_measure_many(example_qfa(), "ax")

    def test_trace_monotone(self):
        out = run_measure_many(astar_bstar_qfa(), "abba")
        for (a1, r1), (a2, r2) in zip(out.trace, out.trace[1:]):
            assert a2 >= a1 - 1e-15
            assert r2 >= r1 - 1e-15

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_conservation_at_every_step(self, seed):
        q = random_qfa(seed)
        word = "abab"[: seed % 5]
        out = run_measure_many(q, word)
        total = out.p_acc + out.p_rej + out.p_non
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_prefix_trace_consistency(self, seed):
        q = random_qfa(seed)
        u = "ab"[: 1 + seed % 2] * 2
        v = "ba"
        full = run_measure_many(q, u + v)
        prefix = run_measure_many(q, u)
        # everything but the right-endmarker step must agree
        for got, want in zip(full.trace[: len(u) + 1], prefix.trace[:-1]):
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)


class TestRunPrefixes:
    @pytest.mark.parametrize(
        "make, word",
        [
            (example_qfa, "aaaaaaa"),
            (astar_bstar_qfa, "aabbaba"),
            (lambda: prfa_to_qfa(random_prfa(3)), "abbab"),
            (lambda: prfa_to_qfa(parity_prfa_trio()[1]), "aaaaaa"),
            (lambda: equality_qfa(20, 0.5, 60, seed=0), "a" * 24),
            (lambda: modp_qfa_amplified(31, 0.6, seed=0), "a" * 6),
        ],
    )
    def test_every_prefix_equals_measure_many(self, make, word):
        q = make()
        outs = run_prefixes(q, word)
        assert len(outs) == len(word) + 1
        for j, out in enumerate(outs):
            assert out.as_tuple() == run_measure_many(q, word[:j]).as_tuple()
            assert out.trace == ()

    def test_memory_is_linear_in_the_word(self):
        # no prefix keeps a copy of the running trace, so the 2,019 outcomes
        # fit in a few MiB, where copies would take quadratic memory
        q = modp_qfa(1009)
        tracemalloc.start()
        try:
            outs = run_prefixes(q, "a" * 2018)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(outs) == 2019
        assert peak <= 4 * 2**20, peak / 2**20

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            run_prefixes(example_qfa(), "ab")


class TestRunMeasureOnce:
    def test_equals_many_when_no_midword_halting(self):
        u = rotation_automaton(5, 1)
        for j in range(0, 51):
            once = run_measure_once(u, "a" * j)
            many = run_measure_many(u, "a" * j)
            assert once.p_acc == pytest.approx(many.p_acc, abs=1e-9)
            assert once.p_rej == pytest.approx(many.p_rej, abs=1e-9)

    def test_differs_from_many_with_midword_halting(self):
        q = example_qfa()
        once = run_measure_once(q, "a")
        many = run_measure_many(q, "a")
        assert abs(once.p_rej - many.p_rej) > 1e-6

    def test_identity_automaton_accepts_empty(self):
        q = QuantumAutomaton(
            states=("q0",),
            alphabet=("a",),
            accepting=frozenset({0}),
            rejecting=frozenset(),
            initial=np.array([1.0 + 0j]),
            unitaries={
                "a": np.eye(1, dtype=complex),
                "^": np.eye(1, dtype=complex),
                "$": np.eye(1, dtype=complex),
            },
        )
        assert run_measure_once(q, "").p_acc == pytest.approx(1.0)


class TestRunMultiscan:
    def test_single_scan_equals_measure_many(self):
        q = astar_bstar_qfa()
        for word in ("", "a", "ab", "ba", "abab"):
            rep = run_multiscan(q, word, 1)
            out = run_measure_many(q, word)
            assert rep.per_scan[0].p_acc == pytest.approx(out.p_acc, abs=1e-15)
            assert rep.per_scan[0].p_rej == pytest.approx(out.p_rej, abs=1e-15)
            assert rep.per_scan[0].p_non == pytest.approx(out.p_non, abs=1e-15)

    def test_cumulative_monotone(self):
        rep = run_multiscan(example_qfa(), "a", 4)
        for d1, d2 in zip(rep.per_scan, rep.per_scan[1:]):
            assert d2.p_acc >= d1.p_acc - 1e-15
            assert d2.p_rej >= d1.p_rej - 1e-15
            assert d2.p_acc + d2.p_rej <= 1.0 + 1e-9

    def test_rotation_automaton_fully_decided_in_one_scan(self):
        rep = run_multiscan(rotation_automaton(5, 1), "aaaaa", 2)
        assert rep.per_scan[0].p_acc == pytest.approx(1.0, abs=1e-9)
        assert rep.per_scan[1].p_acc == pytest.approx(rep.per_scan[0].p_acc, abs=1e-12)
        assert rep.per_scan[1].p_non == pytest.approx(0.0, abs=1e-12)

    def test_requires_at_least_one_scan(self):
        with pytest.raises(ValueError):
            run_multiscan(example_qfa(), "a", 0)

    def test_rescans_do_not_copy_the_tape(self):
        q = random_dense_qfa(3, "n")
        word, scans = "a" * 500, 20
        run_multiscan(q, word, 1)  # the plan is built outside the measurement
        tracemalloc.start()
        try:
            rep = run_multiscan(q, word, scans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.per_scan) == scans
        # (|w| + 2) * scans symbols held at once would take 8 bytes each
        assert peak < 8 * (len(word) + 2) * scans / 4


class TestRunPrfa:
    def test_embedded_rfa_is_deterministic(self):
        from qfa.automata import rfa_to_prfa

        rfa = parity_prfa_trio()[0][0]
        p = rfa_to_prfa(rfa)
        for j in range(10):
            out = run_prfa(p, "a" * j)
            assert out.p_acc in (0.0, 1.0)

    def test_trio_three_halves(self):
        _, trio = parity_prfa_trio()
        out = run_prfa(trio, "aaa")
        assert out.p_acc == pytest.approx(2.0 / 3.0, abs=1e-12)
        out = run_prfa(trio, "aa")
        assert out.p_acc == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert out.p_rej == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_monte_carlo_sanity(self):
        _, trio = parity_prfa_trio()
        n = 10**5
        for word in ("aaa", "aaaa"):
            exact = run_prfa(trio, word)
            freq = sample_prfa(trio, word, n, seed=0)
            for key, value in (("acc", exact.p_acc), ("rej", exact.p_rej)):
                stderr = math.sqrt(max(value * (1 - value), 1e-12) / n)
                assert abs(freq[key] - value) <= 3 * stderr + 1e-9

    def test_unknown_symbol(self):
        _, trio = parity_prfa_trio()
        with pytest.raises(ValueError):
            run_prfa(trio, "ab")

    def test_sample_unknown_symbol(self):
        with pytest.raises(ValueError, match="not in the input alphabet"):
            sample_prfa(random_prfa(0), "zz", 200)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_sample_needs_a_sample(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            sample_prfa(random_prfa(0), "ab", n_samples)


class TestRunDfa:
    def test_astar_bstar_words(self):
        c = astar_bstar_dfa()
        assert run_dfa(c, "aabb")
        assert not run_dfa(c, "aba")

    def test_block_language_members(self):
        c = block_dfa(1)
        assert run_dfa(c, "xx")
        assert run_dfa(c, "xy")
        assert not run_dfa(c, "zz")

    def test_halt_on_enter_mode(self):
        rfa = parity_prfa_trio()[0][1]
        assert run_dfa(rfa, "aa")  # halts accepting at the second letter
        assert run_dfa(rfa, "aaaa")
        assert not run_dfa(rfa, "a")
        assert not run_dfa(rfa, "")

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            run_dfa(astar_bstar_dfa(), "abc")

    def test_missing_transition_of_a_partial_dfa(self):
        partial = dataclasses.replace(astar_dfa(), table=table_of(astar_dfa(), {(0, "a"): 0}))
        assert run_dfa(partial, "aaa") and run_dfa(partial, "")
        with pytest.raises(ValueError, match="^no transition from live on 'b'$"):
            run_dfa(partial, "aab")

    def test_missing_transition_of_a_partial_rfa(self):
        odd = parity_prfa_trio()[0][0]
        table = odd.table.copy()
        table[1, odd.symbols.index(RIGHT_END)] = -1
        partial = dataclasses.replace(odd, table=table)
        assert not run_dfa(partial, "") and not run_dfa(partial, "aa")
        with pytest.raises(ValueError, match=r"^no transition from odd on '\$'$"):
            run_dfa(partial, "aaa")
        table = odd.table.copy()
        table[0, odd.symbols.index(LEFT_END)] = -1
        with pytest.raises(ValueError, match=r"^no transition from even on '\^'$"):
            run_dfa(dataclasses.replace(odd, table=table), "")

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_the_dict_walk_on_block_rfas(self, m):
        dfa = block_dfa(m)
        rfa = reversibilize(dfa)
        delta = transitions_of(rfa)
        rng = random.Random(m)
        words = ["", "xy" * m, "zy" * (m - 1) + "xx", "xy" * m + "x", "yx"]
        words += ["".join(rng.choices("xyz", k=rng.randint(1, 3 * m + 2))) for _ in range(60)]
        for word in words:
            want = reference_run_dfa(rfa, delta, word) in rfa.accepting
            assert run_dfa(rfa, word) == want == run_dfa(dfa, word), word

    def test_matches_the_dict_walk_on_random_halt_on_enter(self):
        seen = set()
        for seed in range(200):
            c = random_halt_on_enter(seed)
            delta = transitions_of(c)
            for word in itertools.chain.from_iterable(itertools.product("ab", repeat=k) for k in range(5)):
                end = reference_run_dfa(c, delta, word)
                assert run_dfa(c, word) == (end in c.accepting), (seed, word)
                seen.add("halting start" if c.start in c.halting else "live start")
                seen.add("halts" if end in c.halting else "never halts")
                seen.add("accepts" if end in c.accepting else "does not accept")
        assert seen == {"halting start", "live start", "halts", "never halts", "accepts", "does not accept"}


def test_prfa_against_qfa_on_all_short_words():
    from qfa.automata import prfa_to_qfa

    for seed in (1, 5):
        p = random_prfa(seed)
        q = prfa_to_qfa(p)
        for word in itertools.chain.from_iterable(
            itertools.product("ab", repeat=k) for k in range(6)
        ):
            o1 = run_prfa(p, word)
            o2 = run_measure_many(q, word)
            assert o1.p_acc == pytest.approx(o2.p_acc, abs=1e-9)


# ---------------------------------------------------------------------------
# The runner core before the compiled plan, kept as the oracle for the plan:
# full state vectors times the dense form of each operator, halting
# amplitudes gathered, measured and zeroed in place after every step.  The
# dense form keeps structured automata independent of the lowering the plan
# runs.
# ---------------------------------------------------------------------------


def reference_measure_many(q, stream):
    """(p_acc, p_rej, p_non) after each symbol of ``stream``, from the old core."""
    dense = {sym: linalg.to_dense(u) for sym, u in q.unitaries.items()}
    acc_idx = np.array(sorted(q.accepting), dtype=np.intp)
    rej_idx = np.array(sorted(q.rejecting), dtype=np.intp)

    def observe(psi):
        d_acc = float(np.sum(np.abs(psi[acc_idx]) ** 2))
        d_rej = float(np.sum(np.abs(psi[rej_idx]) ** 2))
        psi[acc_idx] = 0.0
        psi[rej_idx] = 0.0
        return d_acc, d_rej, psi

    p_acc, p_rej, psi = observe(q.initial.copy())
    steps = []
    for sym in stream:
        d_acc, d_rej, psi = observe(psi @ dense[sym])
        p_acc += d_acc
        p_rej += d_rej
        steps.append((p_acc, p_rej, linalg.norm_squared(psi)))
    return steps


def reference_measure_once(q, word):
    psi = q.initial
    for sym in ("^",) + tuple(word) + ("$",):
        psi = psi @ linalg.to_dense(q.unitaries[sym])
    classes = (q.accepting, q.rejecting, q.non_halting)
    return tuple(linalg.norm_squared(psi[sorted(c)]) for c in classes)


def random_dense_qfa(seed, roles=None):
    """Dense QFA over {a, b}; ``roles`` gives each state's class (n, a or r).

    The initial vector is a random complex unit vector, so it puts mass on
    the halting states.
    """
    rng = np.random.default_rng(seed)
    if roles is None:
        roles = "".join(rng.choice(list("nar"), size=int(rng.integers(1, 9))))
    n = len(roles)
    initial = rng.normal(size=n) + 1j * rng.normal(size=n)
    return QuantumAutomaton(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=("a", "b"),
        accepting=frozenset(i for i, r in enumerate(roles) if r == "a"),
        rejecting=frozenset(i for i, r in enumerate(roles) if r == "r"),
        initial=initial / np.linalg.norm(initial),
        unitaries={sym: random_unitary(rng, n) for sym in ("a", "b", "^", "$")},
    )


def top_level_ops_qfa():
    """8-state QFA over {a, b} whose symbols are each one top-level structured op."""
    rng = np.random.default_rng(17)
    roles = "nnarnanr"
    initial = rng.normal(size=8) + 1j * rng.normal(size=8)
    return QuantumAutomaton(
        states=tuple(f"s{i}" for i in range(8)),
        alphabet=("a", "b"),
        accepting=frozenset(i for i, r in enumerate(roles) if r == "a"),
        rejecting=frozenset(i for i, r in enumerate(roles) if r == "r"),
        initial=initial / np.linalg.norm(initial),
        unitaries={
            "^": linalg.IdentityOp(8),
            "a": linalg.PermutationOp(rng.permutation(8)),
            "b": linalg.TensorPowerOp(random_unitary(rng, 2), 3),
            "$": linalg.ComposedOp([
                linalg.TensorPowerOp(random_unitary(rng, 2), 3),
                linalg.PermutationOp(rng.permutation(8)),
                random_unitary(rng, 8),
            ]),
        },
    )


def random_tree_qfa(seed):
    """QFA over {a, b} whose symbols are random operator trees.

    Its states fall into blocks of 4, 3 and 1 to 8 states, and each state's
    class is drawn at random, the first three states taking one class each,
    so halting states interleave with non-halting ones inside the blocks.
    Each of ``a``, ``b`` and ``$`` holds a plane rotation and a permutation
    inside block-diagonal and composed nodes, and the initial vector puts
    mass on every state.
    """
    rng = np.random.default_rng(seed)
    sizes = [4, 3, int(rng.integers(1, 9))]
    n = sum(sizes)
    roles = rng.choice(list("nar"), size=n)
    roles[:3] = rng.permutation(list("nar"))
    initial = rng.normal(size=n) + 1j * rng.normal(size=n)

    def rotation(dim):
        axis = int(rng.integers(dim))
        target = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        target[axis] = 0.0
        return linalg.PlaneRotationOp(axis, target / np.linalg.norm(target))

    def mixed():
        blocks = [rotation(4), linalg.PermutationOp(rng.permutation(3)), random_operator(rng, sizes[2], 2)]
        return linalg.ComposedOp([linalg.BlockDiagOp(blocks), random_operator(rng, n, 3)])

    tensor = linalg.TensorPowerOp(random_unitary(rng, 2), 2)
    swap = linalg.ComposedOp([linalg.PermutationOp(rng.permutation(3)), rotation(3)])
    return QuantumAutomaton(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=("a", "b"),
        accepting=frozenset(np.flatnonzero(roles == "a").tolist()),
        rejecting=frozenset(np.flatnonzero(roles == "r").tolist()),
        initial=initial / np.linalg.norm(initial),
        unitaries={
            "^": random_operator(rng, n, 3),
            "a": mixed(),
            "b": linalg.BlockDiagOp([tensor, swap, random_operator(rng, sizes[2], 2)]),
            "$": mixed(),
        },
    )


def residue_entry_qfa(roles, first, tail):
    """Operator-tree QFA over {a, b} on the state classes ``roles`` (n, a or
    r each), for the edge cases of a stage's residue entry.

    Every symbol is a ``first`` leaf over all states, a permutation or a
    plane rotation, then a direct sum of a tensor power and a ``tail`` block
    of 4 states, a permutation ("structured") or a dense unitary ("mixed").
    The initial vector puts mass on every state.
    """
    rng = np.random.default_rng(sum(map(ord, roles + first + tail)))
    n = len(roles)
    initial = rng.normal(size=n) + 1j * rng.normal(size=n)

    def entry():
        if first == "permutation":
            return linalg.PermutationOp(rng.permutation(n))
        target = rng.normal(size=n) + 1j * rng.normal(size=n)
        target[0] = 0.0
        return linalg.PlaneRotationOp(0, target / np.linalg.norm(target))

    def block():
        return linalg.PermutationOp(rng.permutation(4)) if tail == "structured" else random_unitary(rng, 4)

    return QuantumAutomaton(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=("a", "b"),
        accepting=frozenset(i for i, r in enumerate(roles) if r == "a"),
        rejecting=frozenset(i for i, r in enumerate(roles) if r == "r"),
        initial=initial / np.linalg.norm(initial),
        unitaries={
            sym: linalg.ComposedOp([
                entry(),
                linalg.BlockDiagOp([linalg.TensorPowerOp(random_unitary(rng, 2), 2), block()]),
            ])
            for sym in ("a", "b", "^", "$")
        },
    )


# empty accepting or rejecting sets, no halting state, every state halting
EDGE_ROLES = ("n", "a", "r", "ar", "nn", "nna", "nnr", "aarr", "nnnnnnnn", "narnarna")


def plan_cases():
    cases = [(f"random-{s}", lambda s=s: random_dense_qfa(s)) for s in range(24)]
    cases += [(f"roles-{r}", lambda r=r: random_dense_qfa(7, r)) for r in EDGE_ROLES]
    cases += [(f"prfa-{s}", lambda s=s: prfa_to_qfa(random_prfa(s))) for s in range(6)]
    cases += [(f"partial-{s}", lambda s=s: prfa_to_qfa(partial_row_prfa(s))) for s in range(6)]
    cases += [
        ("modp-5", lambda: modp_qfa(5, 0)),
        ("amplified-rotation", lambda: amplified_rotation(5, 2, 3)),
        ("modp-amplified-5", lambda: modp_qfa_amplified(5, 0.6, 0)),
        ("equality-3", lambda: equality_qfa(3, 0.5, 6, 0)),
        ("top-level-ops", top_level_ops_qfa),
    ]
    cases += [(f"tree-{s}", lambda s=s: random_tree_qfa(s)) for s in range(8)]
    # every state halting (an empty residue), none halting, and a mix
    cases += [
        (f"entry-{roles}-{first}-{tail}", lambda r=roles, f=first, t=tail: residue_entry_qfa(r, f, t))
        for roles in ("aarraara", "nnnnnnnn", "rnannrna")
        for first in ("permutation", "rotation")
        for tail in ("structured", "mixed")
    ]
    return cases


def sample_words(seed, alphabet=("a", "b")):
    rng = np.random.default_rng(seed)
    words = ["", "a", "b", "ab", "ba", "bb"]
    words += ["".join(rng.choice(list(alphabet), size=k)) for k in (3, 7, 12, 25, 40)]
    return [w for w in words if set(w) <= set(alphabet)]


def assert_close(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-12


def all_floats(values):
    return all(type(x) is float for x in values)


def assert_conserved(outcome):
    assert abs(sum(outcome) - 1.0) <= 1e-12


@pytest.mark.parametrize("name, make", plan_cases(), ids=[c[0] for c in plan_cases()])
class TestPlanAgainstOldCore:
    def test_measure_many_and_trace(self, name, make):
        q = make()
        for word in sample_words(len(name), q.alphabet):
            out = run_measure_many(q, word)
            want = reference_measure_many(q, ("^",) + tuple(word) + ("$",))
            assert_close(out.trace, [s[:2] for s in want])
            assert_close((out.p_acc, out.p_rej, out.p_non), want[-1])
            assert_conserved(out.as_tuple())
            assert all_floats((out.p_acc, out.p_rej, out.p_non) + sum(out.trace, ()))

    def test_prefixes(self, name, make):
        q = make()
        word = sample_words(len(name), q.alphabet)[-1]
        for j, out in enumerate(run_prefixes(q, word)):
            want = reference_measure_many(q, ("^",) + tuple(word[:j]) + ("$",))
            assert out.trace == ()
            assert_close((out.p_acc, out.p_rej, out.p_non), want[-1])
            assert_conserved(out.as_tuple())
            assert all_floats(out.as_tuple())

    def test_every_scan(self, name, make):
        q = make()
        for word in sample_words(len(name), q.alphabet)[::3]:
            stream = ("^",) + tuple(word) + ("$",)
            want = reference_measure_many(q, stream * 3)
            rep = run_multiscan(q, word, 3)
            got = [d.as_tuple() for d in rep.per_scan]
            assert_close(got, want[len(stream) - 1 :: len(stream)])
            for outcome in got:
                assert_conserved(outcome)
            assert all_floats(sum(got, ()))

    def test_measure_once(self, name, make):
        q = make()
        for word in sample_words(len(name), q.alphabet):
            got = run_measure_once(q, word).as_tuple()
            assert_close(got, reference_measure_once(q, word))
            assert_conserved(got)
            assert all_floats(got)


class TestPlan:
    def test_built_once_per_automaton(self, monkeypatch):
        built = []
        lowered = []
        stages = []

        class CountingPlan(automata.RunPlan):
            def __init__(self, q):
                built.append(q)
                super().__init__(q)

        class CountingStage(linalg._Stage):
            def __init__(self, *args):
                stages.append(args)
                super().__init__(*args)

        lower = linalg.lower

        def counting_lower(m, pos):
            lowered.append(m)
            return lower(m, pos)

        monkeypatch.setattr(automata, "RunPlan", CountingPlan)
        monkeypatch.setattr(linalg, "lower", counting_lower)
        monkeypatch.setattr(linalg, "_Stage", CountingStage)
        dense, structured = random_dense_qfa(3), equality_qfa(3, 0.5, 6, 0)
        for q in (dense, structured):
            for _ in range(3):
                run_measure_many(q, "aa")
                run_prefixes(q, "aa")
                run_multiscan(q, "a", 2)
                run_measure_once(q, "a")
        assert [id(q) for q in built] == [id(dense), id(structured)]
        assert [id(m) for m in lowered] == [id(m) for q in built for m in q.unitaries.values()]
        one_lowering = sum(len(linalg._factors(u)) for u in structured.unitaries.values())
        assert one_lowering > len(structured.unitaries)  # its $ lowers to several stages
        assert len(stages) == one_lowering

    def test_plan_kind_follows_operator_types(self):
        # dense, structured and operator-tree plans alike keep the
        # non-halting, then the accepting, then the rejecting states, each in
        # index order, lower into that order and step residues of shape (k,)
        rng = np.random.default_rng(0)
        for q in (random_dense_qfa(5, "anrnan"), modp_qfa(5, seed=0), random_tree_qfa(0)):
            plan, n = q.plan, q.dim
            order = sorted(q.non_halting) + sorted(q.accepting) + sorted(q.rejecting)
            k, h = len(q.non_halting), n - len(q.rejecting)
            assert (plan.non, plan.acc, plan.rej) == (slice(k), slice(k, h), slice(h, n))
            assert np.array_equal(plan.initial(), q.initial[order])
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            for sym, m in q.unitaries.items():
                assert_close(plan.apply[sym](v[order]), (v @ linalg.to_dense(m))[order])
                live = np.where(np.isin(np.arange(n), order[:k]), v, 0)  # v on the non-halting states
                assert_close(plan.apply[sym](v[order][:k]), (live @ linalg.to_dense(m))[order])

            def assert_observed(d_acc, d_rej, psi, full):
                assert psi.shape == (k,)
                assert_close((d_acc, d_rej), (linalg.norm_squared(full[k:h]), linalg.norm_squared(full[h:])))
                assert_close(psi, full[:k])

            full = q.initial[order]  # the dense reference, in the plan's order
            d_acc, d_rej, psi = plan.begin()
            assert_observed(d_acc, d_rej, psi, full)
            for sym in ("^", "a", "a", "$"):
                before = psi.copy()
                d_acc, d_rej, out = plan.observe(psi, plan.apply[sym])
                assert np.array_equal(psi, before)  # a residue is never written to
                full = np.concatenate([full[:k], np.zeros(n - k)]) @ linalg.to_dense(q.unitaries[sym])[np.ix_(order, order)]
                assert_observed(d_acc, d_rej, out, full)
                psi = out

    def test_amplified_steps_allocate_at_most_one_and_a_half_vectors(self):
        # the a step places the residue in one new full vector and runs the
        # tensor kernel in place on its non-halting slice; the $ step is one
        # scatter; neither observation allocates
        q = modp_qfa_amplified(31, 0.6, seed=0)
        plan = q.plan
        psi = plan.begin()[2]
        for sym in ("^", "a"):
            psi = plan.observe(psi, plan.apply[sym])[2]
        full = 16 * q.dim  # bytes of one complex vector of the automaton's size
        assert q.dim == 57_345 and psi.shape == (len(q.non_halting),)
        for sym, vectors in (("a", 1.5), ("$", 1.0)):
            tracemalloc.start()
            try:
                plan.observe(psi, plan.apply[sym])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= vectors * full + 64 * 1024, (sym, peak / full)
        # between runs the plan keeps only the initial vector's nonzero
        # amplitudes and their positions, no vector of the automaton's size
        held = [c.cell_contents for f in (plan.begin, plan.observe, plan.initial) for c in f.__closure__]
        held += [x for cell in held if isinstance(cell, tuple) for x in cell]
        arrays = [x for x in held if isinstance(x, np.ndarray)]
        assert len(arrays) == 2 and all(x.size == np.count_nonzero(q.initial) for x in arrays)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 4), (4, 4), (3,)])
    def test_wrongly_shaped_dense_unitary(self, shape):
        q = random_dense_qfa(11, "nar")
        q.unitaries["a"] = np.ones(shape, dtype=complex)
        runners = (
            lambda: run_measure_many(q, "ab"),
            lambda: run_prefixes(q, "ab"),
            lambda: run_multiscan(q, "ab", 2),
            lambda: run_measure_once(q, "ab"),
        )
        for run in runners:
            with pytest.raises(ValueError, match="dimension mismatch"):
                run()

    def test_overlapping_partition_rejected_by_every_runner(self):
        # and a halting index that names no state, which numpy would count
        # from the end or fail on with an unworded error
        cases = [
            (dataclasses.replace(random_dense_qfa(11, "nar"), rejecting=frozenset({1, 2})),
             r"overlapping partition: \[1\]"),
            (dataclasses.replace(example_qfa(), accepting=frozenset({-1})), r"outside 0\.\.3: \[-1\]"),
            (dataclasses.replace(example_qfa(), accepting=frozenset({2, 7})), r"outside 0\.\.3: \[7\]"),
        ]
        for q, message in cases:
            for run in (run_measure_many, run_prefixes, run_measure_once):
                with pytest.raises(ValueError, match=message):
                    run(q, "aa")
            with pytest.raises(ValueError, match=message):
                run_multiscan(q, "aa", 2)

    def test_wrongly_shaped_unitary_next_to_a_structured_one(self):
        for shape in [(2, 2), (3, 2), (3,)]:
            q = random_dense_qfa(11, "nar")
            q.unitaries["b"] = linalg.IdentityOp(3)
            q.unitaries["a"] = np.ones(shape, dtype=complex)
            for run in (run_measure_many, run_prefixes, run_measure_once):
                with pytest.raises(ValueError, match=re.escape(f"dimension mismatch: matrix {shape} vs vector (3,)")):
                    run(q, "ab")
            with pytest.raises(ValueError, match="dimension mismatch"):
                run_multiscan(q, "ab", 2)
            assert [p for p in automata.validate(q) if p.startswith("symbol 'a': ")]


def conservation_cases():
    cases = [
        ("equality", lambda: equality_qfa(20, 0.5, 60, seed=0), "a" * 24),
        ("modp", lambda: modp_qfa(31, 0), "a" * 33),
        ("modp-amplified", lambda: modp_qfa_amplified(31, 0.6, seed=0), "a" * 31),
        ("prfa-trio", lambda: prfa_to_qfa(parity_prfa_trio()[1]), "a" * 12),
    ]
    cases += [
        (f"partial-{s}", lambda s=s: prfa_to_qfa(partial_row_prfa(s)), "abbabaabba") for s in range(8)
    ]
    return cases


@pytest.mark.parametrize(
    "name, make, word", conservation_cases(), ids=[c[0] for c in conservation_cases()]
)
def test_probability_is_conserved_by_every_runner(name, make, word):
    q = make()
    outcomes = [run_measure_many(q, word).as_tuple()]
    outcomes += [out.as_tuple() for out in run_prefixes(q, word)]
    outcomes += [d.as_tuple() for d in run_multiscan(q, word, 2).per_scan]
    outcomes.append(run_measure_once(q, word).as_tuple())
    for p_acc, p_rej, p_non in outcomes:
        assert abs(p_acc + p_rej + p_non - 1.0) < 1e-12, name
