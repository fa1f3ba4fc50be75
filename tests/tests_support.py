"""Shared helpers for the test suite: random automata, small reference DFAs
and independent oracles that the library itself does not need."""

import math
import random

import numpy as np

from qfa.automata import (
    END_OF_WORD,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
)
from qfa.constructions import is_prime
from qfa.semantics import _working_stream


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


def astar_dfa() -> ClassicalAutomaton:
    """Minimal two-state DFA for a* over {a, b}."""
    return ClassicalAutomaton(
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
    return ClassicalAutomaton(
        states=("all",),
        alphabet=("a", "b"),
        start=0,
        accepting=frozenset({0}),
        transitions={(0, "a"): 0, (0, "b"): 0},
        halting_mode=END_OF_WORD,
    )


def parity_dfa() -> ClassicalAutomaton:
    """Two-state DFA accepting words with an odd number of a's."""
    return ClassicalAutomaton(
        states=("even", "odd"),
        alphabet=("a",),
        start=0,
        accepting=frozenset({1}),
        transitions={(0, "a"): 1, (1, "a"): 0},
        halting_mode=END_OF_WORD,
    )
