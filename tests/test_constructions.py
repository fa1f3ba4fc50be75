import itertools
import math
import re

import numpy as np
import pytest

from qfa import linalg, semantics
from qfa.automata import validate, validate_classical, validate_prfa
from qfa.constructions import (
    GoodSequence,
    amplified_rotation,
    astar_bstar_qfa,
    block_dfa,
    choose_amplification,
    equality_plan,
    equality_qfa,
    example_qfa,
    find_amplified_sequence,
    find_good_sequence,
    good_sequence_length,
    is_good_coefficient,
    is_prime,
    modp_qfa,
    modp_qfa_amplified,
    parity_prfa_trio,
    rotation_automaton,
    solve_success_probability,
)
from qfa.linalg import CapacityError
from qfa.semantics import run_dfa, run_measure_many, run_prefixes


def in_block_language(word: str, m: int) -> bool:
    """Membership oracle straight from the displayed definition."""
    pattern = rf"^((xy|zy){{{m}}}|(xy|zy){{0,{m - 1}}}xx)$"
    return re.match(pattern, word) is not None


class TestExampleQfa:
    def test_aa(self):
        out = run_measure_many(example_qfa(), "aa")
        assert out.p_acc == pytest.approx(0.25, abs=1e-12)
        assert out.p_rej == pytest.approx(0.75, abs=1e-12)

    def test_single_a_same_fixed_point(self):
        out = run_measure_many(example_qfa(), "a")
        assert out.p_acc == pytest.approx(0.25, abs=1e-12)
        assert out.p_rej == pytest.approx(0.75, abs=1e-12)

    def test_validates(self):
        assert validate(example_qfa()) == []


class TestAstarBstar:
    def test_root_of_cubic(self):
        p = solve_success_probability()
        assert abs(p**3 + p - 1.0) < 1e-13
        # independent oracle: numpy's polynomial root finder
        roots = np.roots([1.0, 0.0, 1.0, -1.0])
        real = [r.real for r in roots if abs(r.imag) < 1e-9][0]
        assert p == pytest.approx(real, abs=1e-10)

    def test_pure_a_words(self):
        q = astar_bstar_qfa()
        p = solve_success_probability()
        for m in range(11):
            out = run_measure_many(q, "a" * m)
            assert out.p_acc == pytest.approx(p, abs=1e-9)

    def test_mixed_member(self):
        out = run_measure_many(astar_bstar_qfa(), "aabbb")
        assert out.p_acc == pytest.approx(solve_success_probability(), abs=1e-9)

    def test_non_members_rejected(self):
        q = astar_bstar_qfa()
        p = solve_success_probability()
        for length in range(2, 7):
            for bits in itertools.product("ab", repeat=length):
                word = "".join(bits)
                if re.match(r"^a*b*$", word):
                    continue
                out = run_measure_many(q, word)
                assert out.p_rej >= p - 1e-9, word

    def test_validates(self):
        assert validate(astar_bstar_qfa()) == []


class TestRotationAutomaton:
    def test_full_cycle_accepts(self):
        out = run_measure_many(rotation_automaton(5, 1), "a" * 5)
        assert out.p_acc == pytest.approx(1.0, abs=1e-12)

    def test_single_step(self):
        out = run_measure_many(rotation_automaton(5, 1), "a")
        assert out.p_acc == pytest.approx(math.cos(2 * math.pi / 5) ** 2, abs=1e-12)

    def test_empty_word(self):
        out = run_measure_many(rotation_automaton(5, 1), "")
        assert out.p_acc == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_amplitudes(self):
        # non-halting state after a^j is (cos(2 pi j k / p), i sin(...))
        for p in (5, 7, 13):
            for k in range(1, p):
                q = rotation_automaton(p, k)
                psi = q.initial
                for j in range(3 * p + 1):
                    angle = 2 * math.pi * j * k / p
                    assert abs(psi[0] - math.cos(angle)) < 1e-12
                    assert abs(psi[1] - 1j * math.sin(angle)) < 1e-12
                    psi = linalg.apply(q.unitaries["a"], psi)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rotation_automaton(6, 1)
        with pytest.raises(ValueError):
            rotation_automaton(5, 5)


class TestGoodCoefficients:
    def test_exact_count_p17(self):
        for j in range(1, 17):
            count = sum(is_good_coefficient(17, k, j) for k in range(1, 17))
            assert count == 8

    def test_direct_value(self):
        assert is_good_coefficient(5, 1, 1)
        assert math.cos(2 * math.pi / 5) ** 2 == pytest.approx(0.0955, abs=1e-4)

    def test_agrees_with_simulation(self):
        p = 7
        for k in range(1, p):
            for j in range(1, p):
                simulated = run_measure_many(rotation_automaton(p, k), "a" * j)
                assert is_good_coefficient(p, k, j) == (simulated.p_rej >= 0.5 - 1e-9)

    def test_j_multiple_rejected(self):
        with pytest.raises(ValueError):
            is_good_coefficient(5, 1, 10)


class TestGoodSequence:
    def test_length_formula(self):
        assert good_sequence_length(31) == 28
        assert good_sequence_length(97) == 37
        assert find_good_sequence(31, seed=0).length == 28

    def test_reverifies(self):
        seq = find_good_sequence(31, seed=0)
        assert seq.min_good_fraction() >= 0.25

    def test_seed_determinism(self):
        assert find_good_sequence(31, seed=3) == find_good_sequence(31, seed=3)

    def test_coefficients_in_range(self):
        seq = find_good_sequence(13, seed=1)
        assert all(1 <= k <= 12 for k in seq.coefficients)


class TestModpQfa:
    def test_p31_bounds(self):
        q = modp_qfa(31, seed=0)
        assert validate(q) == []
        for j in (31, 62):
            assert run_measure_many(q, "a" * j).p_acc == pytest.approx(1.0, abs=1e-9)
        for j in range(1, 31):
            assert run_measure_many(q, "a" * j).p_rej >= 1.0 / 8.0 - 1e-9

    def test_state_count(self):
        from qfa.automata import non_halting_state_count

        q = modp_qfa(31, seed=0)
        assert non_halting_state_count(q) == 1 + 2 * 28


class TestAmplifiedRotation:
    def test_power_one_matches_plain(self):
        a1 = amplified_rotation(5, 2, 1)
        plain = rotation_automaton(5, 2)
        for j in range(0, 16):
            o1 = run_measure_many(a1, "a" * j)
            o2 = run_measure_many(plain, "a" * j)
            assert o1.p_acc == pytest.approx(o2.p_acc, abs=1e-12)

    def test_closed_form(self):
        q = amplified_rotation(7, 2, 3)
        for j in range(0, 21):
            expected = math.cos(2 * math.pi * j * 2 / 7) ** 6
            assert run_measure_many(q, "a" * j).p_acc == pytest.approx(expected, abs=1e-12)

    def test_multiples_accepted(self):
        for d in (1, 2, 4):
            q = amplified_rotation(5, 3, d)
            assert run_measure_many(q, "a" * 10).p_acc == pytest.approx(1.0, abs=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            amplified_rotation(5, 1, 21)


class TestChooseAmplification:
    def test_verified_exhaustively(self):
        p, delta = 31, 0.2
        d = choose_amplification(p, delta)
        cos2 = np.cos(2 * np.pi * np.outer(np.arange(1, p), np.arange(1, p)) / p) ** 2
        need = (1 - delta) * (p - 1)
        assert np.all((cos2**d <= delta).sum(axis=1) >= need)
        if d > 1:
            assert not np.all((cos2 ** (d - 1) <= delta).sum(axis=1) >= need)

    def test_monotone_in_delta(self):
        assert choose_amplification(31, 0.1) >= choose_amplification(31, 0.3)

    def test_at_least_one(self):
        assert choose_amplification(7, 0.45) >= 1


class TestModpAmplified:
    def test_p31_bounds(self):
        q = modp_qfa_amplified(31, 0.6, seed=0)
        assert validate(q) == []
        for j in (31, 62):
            assert run_measure_many(q, "a" * j).p_acc == pytest.approx(1.0, abs=1e-9)
        worst = min(run_measure_many(q, "a" * j).p_rej for j in range(1, 31))
        assert worst >= 0.4 - 1e-9

    def test_sequence_fraction(self):
        delta = 0.2
        d = choose_amplification(31, delta)
        seq = find_amplified_sequence(31, delta, d, seed=0)
        cos2d = np.cos(
            2 * np.pi * np.outer(np.arange(1, 31), np.array(seq.coefficients)) / 31
        ) ** (2 * d)
        good = (cos2d <= delta).sum(axis=1)
        assert np.all(good >= (1 - 2 * delta) * seq.length)

    def test_oversized_composite_rejected(self):
        # epsilon 0.5 at p=31 forces a tensor power whose composite would
        # need tens of millions of states
        with pytest.raises(CapacityError):
            modp_qfa_amplified(31, 0.5, seed=0)


class TestEqualityQfa:
    def test_target_accepted(self):
        q = equality_qfa(20, 0.5, 60, seed=0)
        assert validate(q) == []
        assert run_measure_many(q, "a" * 20).p_acc == pytest.approx(1.0, abs=1e-9)

    def test_others_rejected(self):
        q = equality_qfa(20, 0.5, 60, seed=0)
        for n in range(0, 61):
            if n == 20:
                continue
            assert run_measure_many(q, "a" * n).p_rej >= 0.5, n

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            equality_qfa(0, 0.5, 60)
        with pytest.raises(ValueError):
            equality_qfa(20, 0.5, 30)
        with pytest.raises(CapacityError):
            equality_qfa(20, 0.5, 200001)


class TestBlockDfa:
    def test_m1_words(self):
        d = block_dfa(1)
        for word, member in (("xy", True), ("zy", True), ("xx", True), ("yz", False), ("xyx", False)):
            assert run_dfa(d, word) == member

    def test_m3_words(self):
        d = block_dfa(3)
        assert run_dfa(d, "xyzyxy")
        assert run_dfa(d, "xyzyxx")
        assert not run_dfa(d, "xyzy")

    def test_state_count_and_minimality(self):
        from qfa.analysis import minimize_dfa

        for m in (1, 2, 3):
            d = block_dfa(m)
            assert d.n_states == 3 * m + 2
            assert minimize_dfa(d).n_states == 3 * m + 2
            assert validate_classical(d) == []

    def test_language_matches_oracle(self):
        for m in (1, 2):
            d = block_dfa(m)
            for length in range(0, 2 * m + 3):
                for word in itertools.product("xyz", repeat=length):
                    w = "".join(word)
                    assert run_dfa(d, w) == in_block_language(w, m), (m, w)


class TestParityTrio:
    def test_all_reversible_and_valid(self):
        rfas, trio = parity_prfa_trio()
        from qfa.automata import is_reversible

        for rfa in rfas:
            assert validate_classical(rfa) == []
            assert is_reversible(rfa)[0]
        assert validate_prfa(trio) == []

    def test_example_probabilities(self):
        _, trio = parity_prfa_trio()
        assert semantics.run_prfa(trio, "aaa").p_acc == pytest.approx(2 / 3, abs=1e-12)
        assert semantics.run_prfa(trio, "a").p_rej == pytest.approx(2 / 3, abs=1e-12)
        assert semantics.run_prfa(trio, "aaaa").p_rej == pytest.approx(2 / 3, abs=1e-12)

    def test_majority_matches_membership(self):
        rfas, _ = parity_prfa_trio()
        for j in range(0, 41):
            votes = sum(run_dfa(rfa, "a" * j) for rfa in rfas)
            member = j >= 3 and j % 2 == 1
            assert (votes >= 2) == member, j


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_every_generator_validates():
    for q in (
        example_qfa(),
        astar_bstar_qfa(),
        rotation_automaton(13, 5),
        amplified_rotation(5, 2, 2),
        modp_qfa(31, 0),
        modp_qfa_amplified(31, 0.6, 0),
        equality_qfa(20, 0.5, 60, 0),
    ):
        assert validate(q, tol=1e-9) == []


def closed_form_accept(p, d, coefficients, j, r):
    """(1/s) * sum over blocks of cos^(2d)(2*pi*k*(j - r)/p)."""
    ks = np.array(coefficients)
    return float(np.mean(np.cos(2.0 * np.pi * ks * (j - r) / p) ** (2 * d)))


@pytest.mark.parametrize(
    "target, seed",
    [
        pytest.param("modp-amplified", 0, id="0"),
        pytest.param("modp-amplified", 7, id="7"),
        pytest.param("modp", 0, id="modp-0"),
    ],
)
def test_modp_amplified_matches_closed_form(target, seed):
    p, epsilon = 31, 0.6
    if target == "modp":
        d, seq, q = 1, find_good_sequence(p, seed), modp_qfa(p, seed)
    else:
        d = choose_amplification(p, epsilon / 3.0)
        seq = find_amplified_sequence(p, epsilon / 3.0, d, seed)
        q = modp_qfa_amplified(p, epsilon, seed)
    for j, out in enumerate(run_prefixes(q, "a" * (2 * p + 3))):
        want = closed_form_accept(p, d, seq.coefficients, j, 0)
        assert out.p_acc == pytest.approx(want, abs=1e-12)
        assert out.p_rej == pytest.approx(1.0 - want, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 7])
def test_equality_matches_closed_form(seed):
    n, epsilon, n_max = 20, 0.5, 60
    p, d, seq = equality_plan(n, epsilon, n_max, seed)
    q = equality_qfa(n, epsilon, n_max, seed)
    for j, out in enumerate(run_prefixes(q, "a" * (p + n + 2))):
        want = closed_form_accept(p, d, seq.coefficients, j, n)
        assert out.p_acc == pytest.approx(want, abs=1e-12)
        assert out.p_rej == pytest.approx(1.0 - want, abs=1e-12)


def test_sampled_coefficients_are_stable():
    # recorded sequences; seeds 1 (mod 5) and 7 (mod 11) pass only after redraws
    assert find_good_sequence(5, 0).coefficients == (4, 4, 1, 3, 4, 4, 3, 4, 3, 2, 2, 3, 2)
    assert find_good_sequence(5, 1).coefficients == (4, 1, 4, 3, 2, 1, 3, 1, 1, 1, 1, 4, 2)
    d = choose_amplification(11, 0.2)
    assert d == 5
    assert find_amplified_sequence(11, 0.2, d, 0).coefficients == (
        7, 7, 1, 5, 9, 8, 7, 5, 8, 6, 10, 4, 9, 3, 5, 3, 2, 10, 5, 9,
    )
    assert find_amplified_sequence(11, 0.2, d, 7).coefficients == (
        6, 3, 7, 1, 2, 9, 2, 6, 10, 1, 9, 4, 1, 2, 7, 7, 2, 4, 2, 9,
    )
    for seed, digits in (
        (0, "441344343223213231134134324431114143231222241134"),
        (1, "213144442141441432131111424124423224314123134233"),
    ):
        p, d, seq = equality_plan(2, 0.5, 4, seed)
        assert (p, d) == (5, 2)
        assert seq.coefficients == tuple(int(ch) for ch in digits)
