"""Shared helpers for the test suite."""

import random

import numpy as np

from qfa.automata import LEFT_END, RIGHT_END, ProbabilisticAutomaton, QuantumAutomaton


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
