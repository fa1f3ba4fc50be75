"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import itertools
import math
import re
import time

import numpy as np

from tests_support import (
    astar_dfa,
    classical,
    is_good_coefficient,
    random_qfa,
    sigma_star_dfa,
    transitions_of,
    witness_holds,
)

from qfa import linalg
from qfa.analysis import (
    dfa_equivalent,
    find_forbidden_construction,
    find_prfa_forbidden_construction,
    minimize_dfa,
    reversibilize,
)
from qfa.automata import (
    RunOutcome,
    is_reversible,
    prfa_to_qfa,
)
from qfa.constructions import (
    astar_bstar_dfa,
    astar_bstar_qfa,
    block_dfa,
    equality_qfa,
    example_qfa,
    good_sequence_length,
    modp_qfa,
    modp_qfa_amplified,
    parity_prfa_trio,
    random_prfa,
    rotation_automaton,
    solve_success_probability,
)
from qfa.semantics import run_measure_many, run_prfa


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_worked_example():
    t0 = time.time()
    out = run_measure_many(example_qfa(), "aa")
    elapsed = time.time() - t0
    ok = abs(out.p_acc - 0.25) <= 1e-12 and abs(out.p_rej - 0.75) <= 1e-12
    report(1, ok, f"aa -> p_acc={out.p_acc:.15f}, p_rej={out.p_rej:.15f} ({elapsed * 1000:.1f} ms)")


def test_criterion_2_astar_bstar_all_short_words():
    q = astar_bstar_qfa()
    p = solve_success_probability()
    t0 = time.time()
    worst_in = 0.0
    worst_out = float("inf")
    for length in range(0, 9):
        for word in itertools.product("ab", repeat=length):
            w = "".join(word)
            out = run_measure_many(q, w)
            if re.fullmatch(r"a*b*", w):
                worst_in = max(worst_in, abs(out.p_acc - p))
            else:
                worst_out = min(worst_out, out.p_rej)
    elapsed = time.time() - t0
    ok = worst_in <= 1e-9 and worst_out >= p - 1e-9 and elapsed < 1.0
    report(
        2,
        ok,
        f"members |p_acc - p| <= {worst_in:.2e}, non-members p_rej >= {worst_out:.9f} "
        f"(p={p:.7f}, {elapsed:.2f} s)",
    )


def test_criterion_3_rotation_closed_form():
    worst = 0.0
    for p in (5, 7, 13):
        for k in range(1, p):
            q = rotation_automaton(p, k)
            psi = q.initial
            for j in range(0, 3 * p + 1):
                angle = 2 * math.pi * j * k / p
                worst = max(
                    worst,
                    abs(psi[0] - math.cos(angle)),
                    abs(psi[1] - 1j * math.sin(angle)),
                )
                psi = linalg.lower(q.unitaries["a"], np.arange(len(psi)))(psi)
    ok = worst <= 1e-12
    report(3, ok, f"max amplitude deviation from closed form {worst:.2e}")


def test_criterion_4_good_coefficient_count():
    counts = [sum(is_good_coefficient(17, k, j) for k in range(1, 17)) for j in range(1, 17)]
    ok = all(c == 8 for c in counts)
    report(4, ok, f"good coefficients per length class for p=17: {sorted(set(counts))}")


def test_criterion_5_modp_base():
    t0 = time.time()
    q31 = modp_qfa(31, seed=0)
    accept_dev = max(
        abs(run_measure_many(q31, "a" * j).p_acc - 1.0) for j in (31, 62)
    )
    worst_rej = min(run_measure_many(q31, "a" * j).p_rej for j in range(1, 31))
    counts = {}
    for p in (31, 59, 97):
        counts[p] = len(modp_qfa(p, seed=0).non_halting)
    elapsed = time.time() - t0
    ok = (
        accept_dev <= 1e-9
        and worst_rej >= 1.0 / 8.0 - 1e-9
        and counts[31] == 57
        and counts[59] == 1 + 2 * good_sequence_length(59)
        and counts[97] < 97
        and elapsed < 10.0
    )
    report(
        5,
        ok,
        f"accept dev {accept_dev:.1e}, min p_rej {worst_rej:.4f}, "
        f"counts {counts} (97-state bound: {counts[97]} < 97, {elapsed:.1f} s)",
    )


def test_criterion_6_modp_amplified():
    q = modp_qfa_amplified(31, 0.6, seed=0)
    accept_dev = max(abs(run_measure_many(q, "a" * j).p_acc - 1.0) for j in (31, 62))
    worst_rej = min(run_measure_many(q, "a" * j).p_rej for j in range(1, 31))
    ok = accept_dev <= 1e-9 and worst_rej >= 0.4
    report(6, ok, f"accept dev {accept_dev:.1e}, min p_rej {worst_rej:.4f} >= 0.4")


def _parity_ab_dfa():
    return classical(
        states=("even", "odd"),
        alphabet=("a", "b"),
        start=0,
        accepting=frozenset({1}),
        transitions={(0, "a"): 1, (1, "a"): 0, (0, "b"): 0, (1, "b"): 1},
    )


def _brute_force_forbidden(c, max_len):
    delta = transitions_of(c)

    def step(state, word):
        for sym in word:
            state = delta[(state, sym)]
        return state

    def reach(state):
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

    eligible = []
    for s in range(c.n_states):
        r = reach(s)
        eligible.append(
            not all(x in c.accepting for x in r) and not all(x not in c.accepting for x in r)
        )
    for q1 in range(c.n_states):
        for q2 in range(c.n_states):
            if q1 == q2 or not eligible[q2]:
                continue
            for length in range(1, max_len + 1):
                for word in itertools.product(c.alphabet, repeat=length):
                    if step(q1, word) == q2 and step(q2, word) == q2:
                        return (q1, q2, word)
    return None


def _random_minimal_dfa(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(2, 5)
    transitions = {
        (s, a): rng.randrange(n) for s in range(n) for a in ("a", "b")
    }
    dfa = classical(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=("a", "b"),
        start=0,
        accepting=frozenset(s for s in range(n) if rng.random() < 0.5),
        transitions=transitions,
    )
    return minimize_dfa(dfa)


def test_criterion_7_forbidden_constructions():
    ab = astar_bstar_dfa()
    w1 = find_forbidden_construction(ab)
    w5 = find_prfa_forbidden_construction(ab)
    witnesses_ok = (
        w1 is not None
        and w5 is not None
        and witness_holds(ab, w1)
        and witness_holds(ab, w5)
    )
    absent_ok = all(
        find_forbidden_construction(d) is None and find_prfa_forbidden_construction(d) is None
        for d in (astar_dfa(), sigma_star_dfa(), _parity_ab_dfa())
    )
    corpus = [astar_bstar_dfa(), astar_dfa(), sigma_star_dfa(), _parity_ab_dfa()] + [
        _random_minimal_dfa(seed) for seed in range(12)
    ]
    agree = True
    for dfa in corpus:
        assert dfa.n_states <= 5
        got = find_forbidden_construction(dfa)
        oracle = _brute_force_forbidden(dfa, max_len=9)
        agree = agree and ((got is None) == (oracle is None))
        if got is not None:
            agree = agree and witness_holds(dfa, got)
    ok = witnesses_ok and absent_ok and agree
    report(
        7,
        ok,
        f"a*b* witnesses x={''.join(w1.x)!r} / (x={''.join(w5.x)!r}, y={''.join(w5.y)!r}); "
        f"clean on a*, sigma*, parity; brute-force agreement on {len(corpus)} DFAs",
    )


def test_criterion_8_block_family():
    t0 = time.time()
    details = []
    ok = True
    for m in (1, 2, 3):
        dfa = block_dfa(m)
        minimal = minimize_dfa(dfa)
        rfa = reversibilize(minimal)
        same, _ = dfa_equivalent(dfa, rfa)
        bound = 3 * (2**m - 1)
        ok = (
            ok
            and minimal.n_states == 3 * m + 2
            and same
            and is_reversible(rfa)[0]
            and rfa.n_states >= bound
        )
        details.append(f"m={m}: {minimal.n_states} -> {rfa.n_states} (>= {bound})")
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    report(8, ok, "; ".join(details) + f" ({elapsed:.2f} s)")


def test_criterion_9_conversion_chain():
    worst = 0.0
    _, trio = parity_prfa_trio()
    pairs = [(trio, ("a",))]
    for seed in range(10):
        p = random_prfa(seed, max_states=5)
        pairs.append((p, ("a", "b")))
    for prfa, alphabet in pairs:
        q = prfa_to_qfa(prfa)
        for length in range(0, 13):
            for word in itertools.product(alphabet, repeat=length):
                o1 = run_prfa(prfa, word)
                o2 = run_measure_many(q, word)
                worst = max(
                    worst,
                    abs(o1.p_acc - o2.p_acc),
                    abs(o1.p_rej - o2.p_rej),
                    abs(o1.p_non - o2.p_non),
                )
    ok = worst <= 1e-9
    report(9, ok, f"max probability deviation over the bundle and 10 seeded automata: {worst:.2e}")


def test_criterion_10_equality():
    q = equality_qfa(20, 0.5, 60, seed=0)
    accept_dev = abs(run_measure_many(q, "a" * 20).p_acc - 1.0)
    worst_rej = min(
        run_measure_many(q, "a" * n).p_rej for n in range(0, 61) if n != 20
    )
    count_n20 = len(q.non_halting)
    counts = []
    for n in (2**5, 2**8, 2**11):
        counts.append(len(equality_qfa(n, 0.5, 2 * n, seed=0).non_halting))
    monotone = counts[0] < counts[1] < counts[2]
    sublinear = (
        counts[0] / 2**5 > counts[1] / 2**8 > counts[2] / 2**11
    )
    ok = accept_dev <= 1e-9 and worst_rej >= 0.5 and monotone and sublinear
    report(
        10,
        ok,
        f"a^20 accept dev {accept_dev:.1e}, min p_rej {worst_rej:.4f} >= 0.5, "
        f"count(n=20)={count_n20}, growth {counts} (monotone, count/n decreasing)",
    )


def test_criterion_11_property_suites():
    rng = np.random.default_rng(0)

    # unitarity preservation under application
    norm_drift = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        qmat, r = np.linalg.qr(z)
        u = qmat * (np.diag(r) / np.abs(np.diag(r)))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        norm_drift = max(
            norm_drift, abs(np.linalg.norm(linalg.lower(u, np.arange(len(v)))(v)) - np.linalg.norm(v))
        )

    # probability conservation at every step of the measure-many runner
    conservation = 0.0
    for seed in range(60):
        q = random_qfa(seed)
        word = "".join(rng.choice(["a", "b"], size=int(rng.integers(0, 7))))
        out = run_measure_many(q, word)
        conservation = max(conservation, abs(out.p_acc + out.p_rej + out.p_non - 1.0))

    # variational distance of measurements of nearby vectors is at most 4 eps
    dim = 6
    classes = ([0, 1], [2], [3, 4, 5])  # accepting, rejecting, non-halting

    def measure(v):
        return RunOutcome(*(linalg.norm_squared(v[idx]) for idx in classes))

    tv_ok = True
    for _ in range(10**4):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        delta = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        delta *= rng.uniform(0, 0.4) / np.linalg.norm(delta)
        phi = psi + delta
        phi /= max(1.0, np.linalg.norm(phi))
        eps = np.linalg.norm(psi - phi)
        tv = linalg.tv_distance(measure(psi), measure(phi))
        if tv > 4 * eps + 1e-12:
            tv_ok = False
            break

    # prefix consistency of the halting trace
    prefix_dev = 0.0
    for seed in range(40):
        q = random_qfa(seed + 1000)
        u, v = "ab", "ba"
        full = run_measure_many(q, u + v)
        pre = run_measure_many(q, u)
        for got, want in zip(full.trace[: len(u) + 1], pre.trace[:-1]):
            prefix_dev = max(prefix_dev, abs(got[0] - want[0]), abs(got[1] - want[1]))

    ok = norm_drift <= 1e-9 and conservation <= 1e-9 and tv_ok and prefix_dev <= 1e-12
    report(
        11,
        ok,
        f"norm drift {norm_drift:.1e}, conservation drift {conservation:.1e}, "
        f"tv bound held on 10^4 pairs, prefix trace dev {prefix_dev:.1e}",
    )
