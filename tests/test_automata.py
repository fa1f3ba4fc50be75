import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from qfa import automata, linalg, semantics
from qfa.analysis import reversibilize
from qfa.automata import (
    END_OF_WORD,
    HALT_ON_ENTER,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
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
from tests_support import classical, partial_row_prfa, table_of, transitions_of


def brute_force_reversibility(c):
    """Independent predecessor count per (target, symbol)."""
    bad = []
    delta = transitions_of(c)
    symbols = set(a for (_, a) in delta)
    for a in sorted(symbols):
        for t in range(c.n_states):
            sources = [s for s in range(c.n_states) if delta.get((s, a)) == t]
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

    @pytest.mark.parametrize("place, fields, message", [
        ("accepting", {"accepting": ("q1", "nope")}, "accepting names undeclared state 'nope'"),
        ("rejecting", {"rejecting": ("nope",)}, "rejecting names undeclared state 'nope'"),
        (
            "partial row",
            {"partial_unitaries": {"a": {"q0": (0.0, 1.0), "nope": (1.0, 0.0)}}},
            "a partial row of 'a' names undeclared state 'nope'",
        ),
    ])
    def test_undeclared_state_names_refused(self, place, fields, message):
        spec = dict(
            states=("q0", "q1"), alphabet=("a",), accepting=("q1",), rejecting=(), initial=(1.0, 0.0),
            partial_unitaries={},
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_qfa(**{**spec, **fields})


class TestIsReversible:
    def test_self_loop_single_state(self):
        c = classical(
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
        c = classical(
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


def _explicit_transitions(p: ProbabilisticAutomaton) -> dict:
    """The transitions with every implicit self-loop of a non-halting state spelled out."""
    out = dict(p.transitions)
    for sym in tuple(p.alphabet) + (LEFT_END, RIGHT_END):
        for s in range(p.n_states):
            if s not in p.halting:
                out.setdefault((s, sym), [(s, 1.0)])
    return out


def reference_prfa_to_qfa(p: ProbabilisticAutomaton) -> QuantumAutomaton:
    """Oracle: ``prfa_to_qfa`` as it was with its own completion loop.

    It assigns (rather than sums) the amplitude of a repeated entry, so it is
    only an oracle for PRFAs that list each state once per row.
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
                unitaries[sym] = linalg.complete_unitary(partial, rows)
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


def _conversion_corpus():
    rfas, trio = parity_prfa_trio()
    yield from (random_prfa(seed) for seed in range(300))
    yield from (partial_row_prfa(seed) for seed in range(100))
    yield trio
    yield from (rfa_to_prfa(rfa) for rfa in rfas)
    # m = 5 gives 618 states, whose completion alone takes ~15 s per conversion
    yield from (rfa_to_prfa(reversibilize(block_dfa(m))) for m in range(1, 5))


def test_prfa_to_qfa_matches_reference_bit_for_bit():
    count = 0
    for p in _conversion_corpus():
        got, want = prfa_to_qfa(p), reference_prfa_to_qfa(p)
        assert got.states == want.states and got.alphabet == want.alphabet
        assert (got.accepting, got.rejecting) == (want.accepting, want.rejecting)
        assert got.initial.dtype == want.initial.dtype
        assert np.array_equal(got.initial, want.initial)
        assert list(got.unitaries) == list(want.unitaries)
        for sym, m in want.unitaries.items():
            assert got.unitaries[sym].dtype == m.dtype
            assert np.array_equal(got.unitaries[sym], m)
        count += 1
    assert count == 408


class TestRepeatedEntries:
    """A state listed twice in one distribution counts with the sum of its masses."""

    @staticmethod
    def prfa(initial, transitions):
        return ProbabilisticAutomaton(
            states=("s0", "s1", "acc", "rej"),
            alphabet=("a",),
            initial_distribution=initial,
            accepting=frozenset({2}),
            rejecting=frozenset({3}),
            transitions=transitions,
        )

    CASES = {
        "initial-halves": (
            ((0, 0.5), (0, 0.5)),
            {(0, "a"): [(1, 1.0)], (1, "a"): [(0, 1.0)], (0, RIGHT_END): [(2, 1.0)], (1, RIGHT_END): [(3, 1.0)]},
        ),
        "initial-quarters": (
            ((1, 0.25), (0, 0.0), (1, 0.75)),
            {(0, "a"): [(1, 1.0)], (1, "a"): [(0, 1.0)], (0, RIGHT_END): [(2, 1.0)], (1, RIGHT_END): [(3, 1.0)]},
        ),
        "edge-halves": (
            ((0, 1.0),),
            {(0, "a"): [(1, 0.5), (1, 0.5)], (1, "a"): [(0, 1.0)], (0, RIGHT_END): [(2, 1.0)], (1, RIGHT_END): [(3, 1.0)]},
        ),
        "edge-quarters": (
            ((0, 0.5), (1, 0.5)),
            {
                (0, "a"): [(2, 0.25), (0, 0.5), (2, 0.25)],
                (1, "a"): [(3, 0.25), (1, 0.75)],
                (0, RIGHT_END): [(3, 0.25), (3, 0.75)],
                (1, RIGHT_END): [(2, 1.0)],
            },
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_prfa_agrees_with_square_root_qfa(self, case):
        p = self.prfa(*self.CASES[case])
        assert validate_prfa(p) == []
        q = prfa_to_qfa(p)
        assert validate(q) == []
        for k in range(7):
            want = semantics.run_prfa(p, "a" * k)
            got = semantics.run_measure_many(q, "a" * k)
            assert (got.p_acc, got.p_rej, got.p_non) == pytest.approx(
                (want.p_acc, want.p_rej, want.p_non), abs=1e-12
            )


class TestClassicalValidation:
    def test_halting_state_with_outgoing_flagged(self):
        c = classical(
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
        c = classical(
            states=("s",),
            alphabet=("a", "b"),
            start=0,
            accepting=frozenset(),
            transitions={(0, "a"): 0},
        )
        assert any("missing" in p for p in validate_classical(c))

    def test_targets_outside_the_automaton_flagged(self):
        c = ClassicalAutomaton(
            states=("p", "q"),
            alphabet=("a", "b"),
            start=0,
            accepting=frozenset({1, 5}),
            rejecting=frozenset({-1}),
            table=np.array([[1, -2], [2, -1]], dtype=np.int32),
        )
        assert validate_classical(c) == [
            "accepting state index 5 out of range",
            "rejecting state index -1 out of range",
            "missing transition from q on 'b'",
            "transition from p on 'b' targets invalid state -2",
            "transition from q on 'a' targets invalid state 2",
        ]

    @pytest.mark.parametrize("mode, shape", [
        (END_OF_WORD, (2, 1)), (END_OF_WORD, (3, 2)), (END_OF_WORD, (2,)), (HALT_ON_ENTER, (2, 2)),
    ])
    def test_wrongly_shaped_table_flagged(self, mode, shape):
        c = ClassicalAutomaton(
            states=("p", "q"),
            alphabet=("a", "b"),
            start=2,
            accepting=frozenset({0}),
            table=np.zeros(shape, dtype=np.int32),
            halting_mode=mode,
        )
        assert validate_classical(c) == [
            "start state out of range",
            f"transition table has shape {shape}, expected {(2, len(c.symbols))}",
        ]

    def test_halting_index_out_of_range_is_reported(self):
        c = classical(
            states=("s",),
            alphabet=("a",),
            start=0,
            accepting=frozenset({3}),
            transitions={(0, "a"): 0, (0, LEFT_END): 0, (0, RIGHT_END): 0},
            halting_mode=HALT_ON_ENTER,
        )
        assert validate_classical(c) == ["accepting state index 3 out of range"]

    @pytest.fixture(scope="class")
    def malformed(self):
        """Seeded automata with every kind of fault the validator reports."""
        out = []
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 5)
            alphabet = tuple(rng.sample("abc", rng.randint(0, 3)))
            mode = rng.choice((END_OF_WORD, HALT_ON_ENTER))
            symbols = alphabet + ((LEFT_END, RIGHT_END) if mode == HALT_ON_ENTER else ())
            weight = rng.random()
            transitions = {}
            for key in itertools.product(range(n), symbols):
                if rng.random() < weight:  # a target of -1 is no transition
                    transitions[key] = rng.choice([rng.randrange(n)] * 12 + [-2, -1, n, n + 3])
            out.append(classical(
                states=tuple(f"s{i}" for i in range(n)),
                alphabet=alphabet,
                start=rng.choice([0, 0, 0, n - 1, -1, n]),
                accepting=frozenset(rng.sample(range(-1, n + 1), rng.randint(0, 2))),
                rejecting=frozenset(rng.sample(range(-1, n + 1), rng.randint(0, 2))),
                transitions=transitions,
                halting_mode=mode,
            ))
        return out

    def test_problems_match_the_dict_loop(self, malformed):
        kinds = {
            "start state out of range", "overlap", "index", "halting state", "missing",
            "invalid state",
        }
        seen = set()
        for c in malformed:
            problems = validate_classical(c)
            assert problems == reference_validate_classical(c), c
            seen.update(kind for p in problems for kind in kinds if kind in p)
        assert seen == kinds

    def test_clean_automata_validate(self):
        for m in (1, 2, 3):
            rfa = reversibilize(block_dfa(m))
            assert validate_classical(rfa) == reference_validate_classical(rfa) == []


def reference_validate_classical(c: ClassicalAutomaton) -> list:
    """Oracle: ``validate_classical`` as a loop over (state, symbol) keys, as it
    was before it read the table, with the checks added since appended in the
    same places: state indices out of range, and targets that are no state."""
    problems = []
    n = c.n_states
    if not 0 <= c.start < n:
        problems.append("start state out of range")
    overlap = c.accepting & c.rejecting
    if overlap:
        problems.append(f"accepting/rejecting overlap: {sorted(overlap)}")
    for what, group in (("accepting", c.accepting), ("rejecting", c.rejecting)):
        for s in sorted(group):
            if not 0 <= s < n:
                problems.append(f"{what} state index {s} out of range")
    halting = c.halting
    symbols = tuple(c.alphabet)
    if c.halting_mode == HALT_ON_ENTER:
        symbols = symbols + (LEFT_END, RIGHT_END)
    transitions = transitions_of(c)
    for s in range(n):
        for a in symbols:
            has = (s, a) in transitions
            if s in halting:
                if has:
                    problems.append(f"halting state {c.states[s]} has outgoing transition on {a!r}")
            elif not has:
                problems.append(f"missing transition from {c.states[s]} on {a!r}")
    for (s, a), t in transitions.items():
        if not 0 <= t < n:
            problems.append(f"transition from {c.states[s]} on {a!r} targets invalid state {t}")
    return problems


@pytest.mark.parametrize(
    "alphabet, repeated", [(("a", "a"), ["a"]), (("b", "a", "c", "a", "b"), ["a", "b"])]
)
def test_repeated_letters_refused_in_every_alphabet(alphabet, repeated):
    message = re.escape(f"alphabet repeats the letters {repeated}")
    with pytest.raises(ValueError, match=message):
        classical(
            states=("s",), alphabet=alphabet, start=0, accepting=frozenset(),
            transitions={(0, "a"): 0},
        )
    with pytest.raises(ValueError, match=message):
        ProbabilisticAutomaton(
            states=("s",), alphabet=alphabet, initial_distribution=((0, 1.0),),
            accepting=frozenset(), rejecting=frozenset(), transitions={},
        )
    with pytest.raises(ValueError, match=message):
        make_qfa(
            states=("q0",), alphabet=alphabet, accepting=(), rejecting=(), initial=(1.0,),
            partial_unitaries={},
        )


def test_table_holds_the_transitions():
    rfa = reversibilize(block_dfa(2))
    assert rfa.symbols == tuple(rfa.alphabet) + (LEFT_END, RIGHT_END)
    assert rfa.table.dtype == np.int32 and rfa.table.shape == (rfa.n_states, len(rfa.symbols))
    assert np.array_equal(table_of(rfa, transitions_of(rfa)), rfa.table)


class TestClassicalEquality:
    def test_one_table_entry_tells_automata_apart(self):
        c = astar_bstar_dfa()
        assert c == astar_bstar_dfa() and not c != astar_bstar_dfa()
        for s, k in itertools.product(range(c.n_states), range(len(c.symbols))):
            table = c.table.copy()
            table[s, k] = (table[s, k] + 1) % c.n_states
            other = dataclasses.replace(c, table=table)
            assert other != c and c != other and not other == c

    def test_fields_tell_automata_apart(self):
        c = astar_bstar_dfa()
        changes = dict(
            states=("x", "qb", "dead"), alphabet=("a", "c"), start=1, accepting=frozenset({0}),
            rejecting=frozenset({2}), halting_mode=HALT_ON_ENTER,
        )
        for name, value in changes.items():
            assert dataclasses.replace(c, **{name: value}) != c, name
        assert c != transitions_of(c) and c != c.states

    def test_replace_takes_a_new_table(self):
        c = block_dfa(2)
        table = c.table.copy()
        table[0, 0] = c.n_states - 1
        d = dataclasses.replace(c, table=table)
        assert d.table is table and (d.states, d.start, d.accepting) == (c.states, c.start, c.accepting)
        assert c.table[0, 0] == 1  # the original keeps its own table
        assert semantics.run_dfa(c, "xy" * 2) and not semantics.run_dfa(d, "xy" * 2)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(astar_bstar_dfa())


@pytest.mark.parametrize("end", [LEFT_END, RIGHT_END])
def test_endmarkers_refused_in_every_alphabet(end):
    alphabet = ("a", end)
    message = re.escape(f"alphabet must not contain the endmarker {end!r}")
    with pytest.raises(ValueError, match=message):
        classical(
            states=("s",), alphabet=alphabet, start=0, accepting=frozenset(),
            transitions={(0, "a"): 0, (0, end): 0},
        )
    with pytest.raises(ValueError, match=message):
        ProbabilisticAutomaton(
            states=("s",), alphabet=alphabet, initial_distribution=((0, 1.0),),
            accepting=frozenset(), rejecting=frozenset(), transitions={},
        )
    with pytest.raises(ValueError, match=message):
        make_qfa(
            states=("q0",), alphabet=alphabet, accepting=(), rejecting=(), initial=(1.0,),
            partial_unitaries={},
        )
