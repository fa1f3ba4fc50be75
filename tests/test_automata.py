import itertools
import random

import numpy as np
import pytest

from qfa import automata, linalg, semantics
from qfa.automata import (
    HALT_ON_ENTER,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    is_reversible,
    make_qfa,
    prfa_to_qfa,
    rfa_to_prfa,
    validate,
    validate_classical,
    validate_prfa,
)
from qfa.constructions import (
    astar_bstar_dfa,
    block_dfa,
    example_qfa,
    parity_prfa_trio,
    random_prfa,
)


def brute_force_reversibility(c):
    """Independent predecessor count per (target, symbol)."""
    bad = []
    symbols = set(a for (_, a) in c.transitions)
    for a in sorted(symbols):
        for t in range(c.n_states):
            sources = [s for s in range(c.n_states) if c.transitions.get((s, a)) == t]
            if len(sources) > 1:
                bad.append((t, a, sources))
    return bad


class TestValidate:
    def test_worked_example_clean(self):
        assert validate(example_qfa()) == []

    def test_scaled_matrix_flagged(self):
        q = example_qfa()
        broken = dict(q.unitaries)
        broken["a"] = broken["a"] * 1.1
        bad = automata.QuantumAutomaton(
            states=q.states,
            alphabet=q.alphabet,
            accepting=q.accepting,
            rejecting=q.rejecting,
            initial=q.initial,
            unitaries=broken,
        )
        problems = validate(bad)
        assert len(problems) == 1
        assert "'a'" in problems[0] and "unitarity" in problems[0]

    def test_overlapping_partition_flagged(self):
        q = example_qfa()
        bad = automata.QuantumAutomaton(
            states=q.states,
            alphabet=q.alphabet,
            accepting=frozenset({2, 3}),
            rejecting=q.rejecting,
            initial=q.initial,
            unitaries=q.unitaries,
        )
        assert any("overlap" in p for p in validate(bad))

    def test_unnormalized_initial_flagged(self):
        q = example_qfa()
        bad = automata.QuantumAutomaton(
            states=q.states,
            alphabet=q.alphabet,
            accepting=q.accepting,
            rejecting=q.rejecting,
            initial=q.initial * 2.0,
            unitaries=q.unitaries,
        )
        assert any("norm" in p for p in validate(bad))

    def test_validated_automata_run_everywhere(self):
        q = example_qfa()
        assert validate(q) == []
        semantics.run_measure_many(q, "aaa")
        semantics.run_measure_once(q, "aaa")
        semantics.run_multiscan(q, "aaa", 2)


class TestMakeQfa:
    def test_missing_left_end_becomes_identity(self):
        q = example_qfa()
        assert np.array_equal(linalg.to_dense(q.unitaries[LEFT_END]), np.eye(4, dtype=complex))

    def test_rejects_unknown_symbols(self):
        with pytest.raises(ValueError):
            make_qfa(
                states=("q0",),
                alphabet=("a",),
                accepting=(),
                rejecting=(),
                initial=(1.0,),
                partial_unitaries={"z": {"q0": (1.0,)}},
            )


class TestIsReversible:
    def test_self_loop_single_state(self):
        c = ClassicalAutomaton(
            states=("s",),
            alphabet=("a",),
            start=0,
            accepting=frozenset({0}),
            transitions={(0, "a"): 0},
        )
        flag, tuples = is_reversible(c)
        assert flag and tuples == []

    def test_astar_bstar_not_reversible(self):
        c = astar_bstar_dfa()
        flag, tuples = is_reversible(c)
        assert not flag
        # the dead state has two a-predecessors
        assert ("qb", "dead", "dead", "a") in tuples

    def test_block_dfa_witnesses(self):
        c = block_dfa(1)
        flag, tuples = is_reversible(c)
        assert not flag
        merge_targets = {t for (_, _, t, _) in tuples}
        assert "F" in merge_targets or "D" in merge_targets

    def test_matches_brute_force(self):
        for c in (astar_bstar_dfa(), block_dfa(1), block_dfa(2)):
            flag, tuples = is_reversible(c)
            oracle = brute_force_reversibility(c)
            assert flag == (not oracle)
            pair_count = sum(len(srcs) * (len(srcs) - 1) // 2 for (_, _, srcs) in oracle)
            assert len(tuples) == pair_count


class TestRfaToPrfa:
    def test_two_cycle_parity(self):
        rfa = parity_prfa_trio()[0][0]
        p = rfa_to_prfa(rfa)
        assert validate_prfa(p) == []
        assert all(prob == 1.0 for edges in p.transitions.values() for _, prob in edges)
        assert p.initial_distribution == ((rfa.start, 1.0),)

    def test_language_preserved(self):
        for rfa in parity_prfa_trio()[0]:
            p = rfa_to_prfa(rfa)
            for j in range(13):
                word = "a" * j
                expected = semantics.run_dfa(rfa, word)
                out = semantics.run_prfa(p, word)
                assert out.p_acc == pytest.approx(1.0 if expected else 0.0, abs=1e-12)

    def test_non_reversible_rejected(self):
        c = ClassicalAutomaton(
            states=("u", "v", "acc"),
            alphabet=("a",),
            start=0,
            accepting=frozenset({2}),
            rejecting=frozenset(),
            transitions={
                (0, LEFT_END): 0,
                (1, LEFT_END): 1,
                (0, "a"): 1,
                (1, "a"): 1,
                (0, RIGHT_END): 2,
                (1, RIGHT_END): 2,
            },
            halting_mode=HALT_ON_ENTER,
        )
        with pytest.raises(ValueError):
            rfa_to_prfa(c)


class TestPrfaToQfa:
    def test_deterministic_rfa_gives_unit_amplitudes(self):
        rfa = parity_prfa_trio()[0][0]
        q = prfa_to_qfa(rfa_to_prfa(rfa))
        assert validate(q) == []
        for j in range(10):
            out = semantics.run_measure_many(q, "a" * j)
            assert min(abs(out.p_acc - 0.0), abs(out.p_acc - 1.0)) <= 1e-9

    def test_majority_bundle_probability(self):
        _, trio = parity_prfa_trio()
        q = prfa_to_qfa(trio)
        for j in range(0, 30):
            out = semantics.run_measure_many(q, "a" * j)
            member = j >= 3 and j % 2 == 1
            correct = out.p_acc if member else out.p_rej
            assert correct >= 2.0 / 3.0 - 1e-9

    def test_half_probability_edge(self):
        p = automata.ProbabilisticAutomaton(
            states=("s", "t", "u", "acc", "rej", "acc2"),
            alphabet=("a",),
            initial_distribution=((0, 1.0),),
            accepting=frozenset({3, 5}),
            rejecting=frozenset({4}),
            transitions={
                (0, "a"): [(1, 0.5), (2, 0.5)],
                (1, "a"): [(3, 1.0)],
                (2, "a"): [(4, 1.0)],
                (0, RIGHT_END): [(5, 1.0)],
                (1, RIGHT_END): [(3, 1.0)],
                (2, RIGHT_END): [(4, 1.0)],
            },
        )
        assert validate_prfa(p) == []
        q = prfa_to_qfa(p)
        amp = linalg.to_dense(q.unitaries["a"])[0, 1]
        assert amp == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_outcomes_match_on_random_prfas(self):
        for seed in range(4):
            p = random_prfa(seed)
            assert validate_prfa(p) == []
            q = prfa_to_qfa(p)
            assert validate(q) == []
            for word in itertools.chain.from_iterable(
                itertools.product("ab", repeat=k) for k in range(7)
            ):
                o1 = semantics.run_prfa(p, word)
                o2 = semantics.run_measure_many(q, word)
                assert o1.p_acc == pytest.approx(o2.p_acc, abs=1e-9)
                assert o1.p_rej == pytest.approx(o2.p_rej, abs=1e-9)
                assert o1.p_non == pytest.approx(o2.p_non, abs=1e-9)


def partial_row_prfa(seed: int, max_states: int = 6) -> automata.ProbabilisticAutomaton:
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
    return automata.ProbabilisticAutomaton(
        states=tuple(names),
        alphabet=("a", "b"),
        initial_distribution=tuple((s, w / sum(weights)) for s, w in enumerate(weights)),
        accepting=frozenset({n_live}),
        rejecting=frozenset({n_live + 1}),
        transitions=transitions,
    )


class TestImplicitSelfLoops:
    def repro(self, transitions):
        return automata.ProbabilisticAutomaton(
            states=("s0", "s1", "acc", "rej"),
            alphabet=("a",),
            initial_distribution=((0, 0.5), (1, 0.5)),
            accepting=frozenset({2}),
            rejecting=frozenset({3}),
            transitions=transitions,
        )

    def test_undefined_row_keeps_its_mass(self):
        p = self.repro({
            (0, LEFT_END): [(0, 0.5), (2, 0.5)],
            (0, "a"): [(0, 1.0)],
            (1, "a"): [(1, 1.0)],
            (0, RIGHT_END): [(3, 1.0)],
            (1, RIGHT_END): [(2, 1.0)],
        })
        assert validate_prfa(p) == []
        want = semantics.run_prfa(p, "a")
        got = semantics.run_measure_many(prfa_to_qfa(p), "a")
        assert (want.p_acc, want.p_rej) == pytest.approx((0.75, 0.25), abs=1e-12)
        assert (got.p_acc, got.p_rej, got.p_non) == pytest.approx(
            (want.p_acc, want.p_rej, want.p_non), abs=1e-12
        )

    def test_self_loop_counts_for_reversibility(self):
        # s1 keeps its mass on ^, so s0 may not enter s1 on ^
        p = self.repro({
            (0, LEFT_END): [(1, 1.0)],
            (0, RIGHT_END): [(3, 1.0)],
            (1, RIGHT_END): [(2, 1.0)],
        })
        problems = validate_prfa(p)
        assert any("reversibility" in msg for msg in problems)
        with pytest.raises(ValueError):
            prfa_to_qfa(p)

    def test_halting_edges_and_bad_targets_flagged(self):
        p = self.repro({
            (2, "a"): [(2, 1.0)],
            (0, "a"): [(7, 1.0)],
        })
        problems = validate_prfa(p)
        assert any("halting state acc" in msg for msg in problems)
        assert any("invalid state" in msg for msg in problems)

    @pytest.mark.parametrize("seed", range(8))
    def test_partial_rows_match_on_short_words(self, seed):
        p = partial_row_prfa(seed)
        assert validate_prfa(p) == []
        assert any(
            (s, sym) not in p.transitions
            for s in range(p.n_states - 2)
            for sym in ("a", "b", LEFT_END, RIGHT_END)
        )
        q = prfa_to_qfa(p)
        assert validate(q) == []
        for word in itertools.chain.from_iterable(
            itertools.product("ab", repeat=k) for k in range(6)
        ):
            o1 = semantics.run_prfa(p, word)
            o2 = semantics.run_measure_many(q, word)
            assert (o2.p_acc, o2.p_rej, o2.p_non) == pytest.approx(
                (o1.p_acc, o1.p_rej, o1.p_non), abs=1e-9
            )


def test_initial_halting_mass_counts_before_left_end():
    # half the initial mass sits on acc; the completed ^ row of acc would move it to rej
    p = automata.ProbabilisticAutomaton(
        states=("s0", "acc", "rej"),
        alphabet=("a",),
        initial_distribution=((0, 0.5), (1, 0.5)),
        accepting=frozenset({1}),
        rejecting=frozenset({2}),
        transitions={(0, LEFT_END): [(1, 1.0)], (0, RIGHT_END): [(2, 1.0)]},
    )
    assert validate_prfa(p) == []
    q = prfa_to_qfa(p)
    for word in ("", "a", "aa"):
        want = semantics.run_prfa(p, word)
        assert (want.p_acc, want.p_rej) == (1.0, 0.0)
        got = semantics.run_measure_many(q, word)
        assert (got.p_acc, got.p_rej, got.p_non) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert np.allclose(got.trace, want.trace, rtol=0.0, atol=1e-12)
    for out in semantics.run_prefixes(q, "aa"):
        assert (out.p_acc, out.p_rej, out.p_non) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    for scan in semantics.run_multiscan(q, "a", 3).per_scan:
        assert scan.as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


class TestClassicalValidation:
    def test_halting_state_with_outgoing_flagged(self):
        c = ClassicalAutomaton(
            states=("s", "acc"),
            alphabet=("a",),
            start=0,
            accepting=frozenset({1}),
            rejecting=frozenset(),
            transitions={
                (0, LEFT_END): 0,
                (0, "a"): 1,
                (0, RIGHT_END): 1,
                (1, "a"): 0,
            },
            halting_mode=HALT_ON_ENTER,
        )
        assert any("outgoing" in p for p in validate_classical(c))

    def test_missing_transition_flagged(self):
        c = ClassicalAutomaton(
            states=("s",),
            alphabet=("a", "b"),
            start=0,
            accepting=frozenset(),
            transitions={(0, "a"): 0},
        )
        assert any("missing" in p for p in validate_classical(c))
