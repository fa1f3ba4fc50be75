"""Generators for the toolkit's concrete automata.

Includes the built-in worked example QFA, the a*b* automaton whose success
probability is the root of p^3 + p = 1, modular rotation automata with
good-coefficient searches and tensor amplification, a length-equality QFA,
the exponential-blowup block-language DFA family, and the three-automaton
majority bundle for odd word lengths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .automata import (
    END_OF_WORD,
    HALT_ON_ENTER,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
    make_qfa,
    rfa_to_prfa,
)
from .linalg import (
    MAX_TENSOR_COPIES,
    BlockDiagOp,
    CapacityError,
    ComposedOp,
    IdentityOp,
    PermutationOp,
    PlaneRotationOp,
    TensorPowerOp,
)

MAX_COMPOSITE_STATES = 500000
MAX_EQUALITY_BOUND = 100000
SEQUENCE_ATTEMPTS = 1000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _require_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# Worked example and the a*b* automaton
# ---------------------------------------------------------------------------


def example_qfa() -> QuantumAutomaton:
    """Four-state QFA over {a} used as the built-in worked example.

    Reading a sends q0 to (1/2)q0 + (1/2)q1 + (1/sqrt 2)q_rej and q1 to the
    same vector with the q_rej sign flipped; the right endmarker maps q0 to
    q_rej and q1 to q_acc.  Unspecified rows are completed canonically.
    """
    h = 0.5
    r = 1.0 / math.sqrt(2.0)
    return make_qfa(
        states=("q0", "q1", "q_acc", "q_rej"),
        alphabet=("a",),
        accepting=("q_acc",),
        rejecting=("q_rej",),
        initial=(1.0, 0.0, 0.0, 0.0),
        partial_unitaries={
            "a": {"q0": (h, h, 0.0, r), "q1": (h, h, 0.0, -r)},
            RIGHT_END: {"q0": (0.0, 0.0, 0.0, 1.0), "q1": (0.0, 0.0, 1.0, 0.0)},
        },
    )


def solve_success_probability() -> float:
    """Root of p^3 + p = 1 in (0, 1), by bisection to a bracket of 1e-14."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = (lo + hi) / 2.0
        if mid**3 + mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2.0
    residual = abs(root**3 + root - 1.0)
    if residual > 1e-13:
        raise AssertionError(f"bisection residual {residual:.3e} too large")
    return root


def astar_bstar_qfa() -> QuantumAutomaton:
    """Four-state QFA recognizing a*b* with success probability ~0.6823.

    Words in a*b* are accepted with probability exactly p, words outside are
    rejected with probability at least p, where p solves p^3 + p = 1.
    """
    p = solve_success_probability()
    sp = math.sqrt(p)
    s1p = math.sqrt(1.0 - p)
    sp1p = math.sqrt(p * (1.0 - p))
    return make_qfa(
        states=("q0", "q1", "q_acc", "q_rej"),
        alphabet=("a", "b"),
        accepting=("q_acc",),
        rejecting=("q_rej",),
        initial=(s1p, sp, 0.0, 0.0),
        partial_unitaries={
            "a": {
                "q0": (1.0 - p, sp1p, 0.0, sp),
                "q1": (sp1p, p, 0.0, -s1p),
            },
            "b": {"q0": (0.0, 0.0, 0.0, 1.0), "q1": (0.0, 1.0, 0.0, 0.0)},
            RIGHT_END: {"q0": (0.0, 0.0, 0.0, 1.0), "q1": (0.0, 0.0, 1.0, 0.0)},
        },
    )


# ---------------------------------------------------------------------------
# Modular rotation automata
# ---------------------------------------------------------------------------


def _rotation_2x2(angle: float) -> np.ndarray:
    c = math.cos(angle)
    s = math.sin(angle)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def rotation_automaton(p: int, k: int) -> QuantumAutomaton:
    """Four-state automaton rotating by 2*pi*k/p per letter.

    After a^j the non-halting part is cos(2*pi*j*k/p) q0 + i sin(...) q1, so
    words of length divisible by p are accepted with probability 1.
    """
    _require_prime(p)
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must be in 1..{p - 1}, got {k}")
    rot = _rotation_2x2(2.0 * math.pi * k / p)
    return make_qfa(
        states=("q0", "q1", "q_acc", "q_rej"),
        alphabet=("a",),
        accepting=("q_acc",),
        rejecting=("q_rej",),
        initial=(1.0, 0.0, 0.0, 0.0),
        partial_unitaries={
            "a": {
                "q0": (rot[0, 0], rot[0, 1], 0.0, 0.0),
                "q1": (rot[1, 0], rot[1, 1], 0.0, 0.0),
            },
            RIGHT_END: {"q0": (0.0, 0.0, 1.0, 0.0), "q1": (0.0, 0.0, 0.0, 1.0)},
        },
    )


@dataclass(frozen=True)
class GoodSequence:
    """Coefficients such that every non-multiple length has many good ones."""

    p: int
    coefficients: tuple

    @property
    def length(self) -> int:
        return len(self.coefficients)


def good_sequence_length(p: int) -> int:
    return math.ceil(8.0 * math.log(p))


def _sample_sequence(p: int, s: int, rng: random.Random, passes, attempts: int = SEQUENCE_ATTEMPTS):
    """First of ``attempts`` length-s coefficient sequences drawn from ``rng`` that passes.

    ``passes`` sees the cos table: row j-1, column l holds
    cos(2*pi*j*k_l/p) for j in 1..p-1.  Checking residues 1..p-1 suffices
    because every rotation returns to its starting state after p letters.
    Returns None when no attempt passes.
    """
    js = np.arange(1, p)
    for _ in range(attempts):
        coeffs = tuple(rng.randrange(1, p) for _ in range(s))
        if passes(np.cos(2.0 * np.pi * np.outer(js, np.array(coeffs)) / p)):
            return GoodSequence(p=p, coefficients=coeffs)
    return None


def find_good_sequence(p: int, seed: int = 0) -> GoodSequence:
    """Sample coefficient sequences until one is good for every length class.

    Good means: for every j in 1..p-1 at least a quarter of the coefficients
    reject a^j with probability >= 1/2.
    """
    _require_prime(p)
    if p < 3:
        raise ValueError("p must be at least 3")
    s = good_sequence_length(p)
    sequence = _sample_sequence(
        p, s, random.Random(seed), lambda cos: np.all(4 * (cos**2 <= 0.5).sum(axis=1) >= s)
    )
    if sequence is None:
        raise CapacityError(f"no good sequence found for p={p} in {SEQUENCE_ATTEMPTS} attempts")
    return sequence


# ---------------------------------------------------------------------------
# Tensor amplification
# ---------------------------------------------------------------------------


def amplified_rotation(p: int, k: int, d: int) -> QuantumAutomaton:
    """Tensor power of d rotation coins with per-string halting states.

    The one-block composite for coefficient k: the left endmarker moves the
    start state onto the all-zero string of the 2^d non-halting strings, and
    the accept amplitude on a^j is cos(2*pi*j*k/p)^d.  The right endmarker
    sends the all-zero string to the single accepting state and every other
    string to its own rejecting state.
    """
    _require_prime(p)
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must be in 1..{p - 1}, got {k}")
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > MAX_TENSOR_COPIES:
        raise CapacityError(f"d={d} exceeds the tensor capacity of {MAX_TENSOR_COPIES}")
    return _composite_blocks(p, GoodSequence(p, (k,)), d)


def choose_amplification(p: int, delta: float) -> int:
    """Smallest tensor power d making a 1-delta fraction of coins delta-good.

    A coin k is delta-good for a^j when cos(2*pi*j*k/p)^(2d) <= delta, i.e.
    the amplified automaton rejects with probability at least 1 - delta.
    Verified by brute force over every (j, k) pair.
    """
    _require_prime(p)
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must be in (0, 1/2)")
    ks = np.arange(1, p)
    cos2 = np.cos(2.0 * np.pi * np.outer(ks, ks) / p) ** 2
    need = (1.0 - delta) * (p - 1)
    for d in range(1, 65):
        good = (cos2**d <= delta).sum(axis=1)
        if np.all(good >= need):
            return d
    raise CapacityError(f"no amplification power up to 64 works for p={p}, delta={delta}")


def find_amplified_sequence(p: int, delta: float, d: int, seed: int = 0) -> GoodSequence:
    """Sequence where every length class has a 1-2*delta fraction of delta-good coins."""
    _require_prime(p)
    s = good_sequence_length(p)
    need = (1.0 - 2.0 * delta) * s
    sequence = _sample_sequence(
        p, s, random.Random(seed), lambda cos: np.all(((cos**2) ** d <= delta).sum(axis=1) >= need)
    )
    if sequence is None:
        raise CapacityError(
            f"no delta-good sequence found for p={p}, delta={delta} in {SEQUENCE_ATTEMPTS} attempts"
        )
    return sequence


# ---------------------------------------------------------------------------
# Composite counting automata
# ---------------------------------------------------------------------------


def modp_qfa(p: int, seed: int = 0) -> QuantumAutomaton:
    """Composite automaton accepting exactly the lengths divisible by p.

    Multiples of p are accepted with probability 1; every other length is
    rejected with probability at least 1/8.  Uses 1 + 2*ceil(8 ln p)
    non-halting states.
    """
    _require_prime(p)
    return _composite_blocks(p, find_good_sequence(p, seed), 1)


def _composite_blocks(
    p: int,
    sequence: GoodSequence,
    d: int,
    target_remainder: int = 0,
) -> QuantumAutomaton:
    """Structured composite of amplified blocks, one accept test per block.

    Each block holds 2^d non-halting states plus its own halting states; on
    the right endmarker the block first undoes the rotation accumulated by a
    word of length ``target_remainder`` and then exchanges the non-halting
    basis with the halting one.  A plane rotation spreads the start state
    over the block entries on the left endmarker.
    """
    s = sequence.length
    m = 1 << d
    block_dim = 2 * m
    n = 1 + s * block_dim
    if n > MAX_COMPOSITE_STATES:
        raise CapacityError(
            f"composite would need {n} states (> {MAX_COMPOSITE_STATES}); "
            f"a larger epsilon keeps the tensor power manageable"
        )
    labels = [format(i, f"0{d}b") for i in range(m)]
    tail = [f".q{lbl}" for lbl in labels] + [".acc"] + [f".rej{lbl}" for lbl in labels[1:]]

    names = ["start"]
    accepting = []
    rejecting = []
    for l in range(s):
        base = 1 + l * block_dim
        head = f"b{l}"
        names += [head + t for t in tail]
        accepting.append(base + m)
        rejecting.extend(range(base + m + 1, base + block_dim))

    swap = PermutationOp([m] + [m + i for i in range(1, m)] + list(range(m)))
    blocks_a = [IdentityOp(1)]
    blocks_end = [IdentityOp(1)]
    for k in sequence.coefficients:
        spin = TensorPowerOp(_rotation_2x2(2.0 * math.pi * k / p), d)
        blocks_a.append(BlockDiagOp([spin, IdentityOp(m)]))
        if target_remainder % p == 0:
            blocks_end.append(swap)
        else:
            unwind = TensorPowerOp(
                _rotation_2x2(-2.0 * math.pi * k * target_remainder / p), d
            )
            blocks_end.append(ComposedOp([BlockDiagOp([unwind, IdentityOp(m)]), swap]))

    entries = np.zeros(n, dtype=complex)
    for l in range(s):
        entries[1 + l * block_dim] = 1.0 / math.sqrt(s)

    initial = np.zeros(n, dtype=complex)
    initial[0] = 1.0
    return QuantumAutomaton(
        states=tuple(names),
        alphabet=("a",),
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        initial=initial,
        unitaries={
            "a": BlockDiagOp(blocks_a),
            LEFT_END: PlaneRotationOp(0, entries),
            RIGHT_END: BlockDiagOp(blocks_end),
        },
    )


def modp_qfa_amplified(p: int, epsilon: float, seed: int = 0) -> QuantumAutomaton:
    """Divisibility-by-p automaton with rejection probability at least 1-epsilon.

    With delta = epsilon/3, each block is the smallest tensor power for which
    a 1-delta fraction of coins is delta-good, and the coin sequence is
    resampled until every length class sees a 1-2*delta fraction of
    delta-good blocks.  Multiples of p are still accepted with certainty.
    """
    _require_prime(p)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    delta = epsilon / 3.0
    d = choose_amplification(p, delta)
    if d > MAX_TENSOR_COPIES:
        raise CapacityError(f"required tensor power {d} exceeds {MAX_TENSOR_COPIES}")
    sequence = find_amplified_sequence(p, delta, d, seed)
    return _composite_blocks(p, sequence, d)


# ---------------------------------------------------------------------------
# Length-equality automaton
# ---------------------------------------------------------------------------


def _mean_accept_power(d: int) -> float:
    # limit of the average of cos^(2d) over a full period
    return math.comb(2 * d, d) / 4.0**d


def _next_prime_above(n: int) -> int:
    q = n + 1
    while not is_prime(q):
        q += 1
    return q


def equality_plan(n: int, epsilon: float, n_max: int, seed: int = 0):
    """Prime, tensor power, and verified coin sequence for equality_qfa.

    A single prime p > n_max is used, so no length at most n_max other than
    n shares n's remainder.  The coin sequence is resampled until the mean
    accept probability over the blocks is below epsilon for every nonzero
    remainder, which makes the rejection bound a checked property of the
    construction rather than a sampling promise.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n_max < 2 * n:
        raise ValueError("n_max must be at least 2n")
    if n_max > MAX_EQUALITY_BOUND:
        raise CapacityError(f"n_max={n_max} exceeds the bound {MAX_EQUALITY_BOUND}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    p = _next_prime_above(n_max)

    d = 1
    while _mean_accept_power(d) > 0.85 * epsilon:
        d += 1
        if d > MAX_TENSOR_COPIES:
            raise CapacityError(f"epsilon={epsilon} needs a tensor power beyond {MAX_TENSOR_COPIES}")
    threshold = epsilon * (1.0 - 1e-3)

    # sequence length: base count, enlarged so a sampled sequence verifies
    # with constant probability (Gaussian tail sizing, then doubling)
    mean = _mean_accept_power(d)
    variance = _mean_accept_power(2 * d) - mean**2
    z2 = 2.0 * math.log(4.0 * (p - 1))
    sized = math.ceil(variance * z2 / (threshold - mean) ** 2)
    s = max(good_sequence_length(p), sized)

    rng = random.Random(seed)
    for _ in range(7):
        sequence = _sample_sequence(
            p,
            s,
            rng,
            lambda cos: float((cos ** (2 * d)).mean(axis=1).max()) <= threshold,
            SEQUENCE_ATTEMPTS // 7,
        )
        if sequence is not None:
            return p, d, sequence
        s *= 2
    raise CapacityError(f"no verified coin sequence found for n={n}, epsilon={epsilon}")


def equality_qfa(n: int, epsilon: float, n_max: int, seed: int = 0) -> QuantumAutomaton:
    """QFA accepting a^n with certainty among inputs of length at most n_max.

    Counts modulo a single prime p > n_max; each block is a tensor-amplified
    rotation coin whose right-endmarker action undoes the rotation a word of
    length n would accumulate, so a^n is accepted with probability 1 and any
    other length at most n_max is rejected with probability at least
    1 - epsilon.  State count grows as O(log n_max).
    """
    p, d, sequence = equality_plan(n, epsilon, n_max, seed)
    return _composite_blocks(p, sequence, d, target_remainder=n % p)


# ---------------------------------------------------------------------------
# Block-language DFA family (exponential reversibilization blowup)
# ---------------------------------------------------------------------------


def block_dfa(m: int) -> ClassicalAutomaton:
    """Minimal DFA for (xy|zy)^m plus the shortcuts (xy|zy)^i xx, i < m.

    Uses exactly 3m+2 states: one block-boundary state and two half-block
    states per block, a merged final state, and a dead state.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    block, final, dead = 3 * np.arange(m), 3 * m, 3 * m + 1  # A_i, B_i, C_i are 3i, 3i+1, 3i+2
    table = np.full((3 * m + 2, 3), dead, dtype=np.int32)  # columns x, y, z
    table[block, 0], table[block, 2] = block + 1, block + 2
    table[block + 1, 0] = final
    table[block + 1, 1] = table[block + 2, 1] = block + 3  # the next A, or F after the last block
    return ClassicalAutomaton(
        states=tuple(f"{h}{i}" for i in range(m) for h in "ABC") + ("F", "D"),
        alphabet=("x", "y", "z"),
        start=0,
        accepting=frozenset({final}),
        table=table,
        halting_mode=END_OF_WORD,
    )


# ---------------------------------------------------------------------------
# Majority bundle for odd lengths of at least three
# ---------------------------------------------------------------------------


def _unary_rfa(states, a_targets, end_targets, accepting) -> ClassicalAutomaton:
    """Halt-on-enter RFA over {a} whose live states 0 and 1 keep their place on
    ^ and move to ``a_targets[s]`` on a and ``end_targets[s]`` on $; every
    other state halts, accepting if it is in ``accepting``."""
    table = np.full((len(states), 3), -1, dtype=np.int32)  # columns a, ^, $
    table[:2] = np.column_stack([a_targets, (0, 1), end_targets])
    return ClassicalAutomaton(
        states=states,
        alphabet=("a",),
        start=0,
        accepting=frozenset(accepting),
        rejecting=frozenset(range(2, len(states))) - frozenset(accepting),
        table=table,
        halting_mode=HALT_ON_ENTER,
    )


def parity_prfa_trio():
    """Three reversible automata whose majority vote decides {a^(2n+3)}.

    Returns (rfas, prfa): the RFAs accept odd lengths, lengths >= 2, and
    nothing, respectively; the bundled automaton starts in each with
    probability 1/3, so every word is decided correctly with probability 2/3.
    """
    odd = _unary_rfa(("even", "odd", "acc(odd)", "rej(even)"), (1, 0), (3, 2), {2})
    at_least_two = _unary_rfa(
        ("len0", "len1", "acc(2+)", "rej(len0)", "rej(len1)"), (1, 2), (3, 4), {2}
    )
    nothing = _unary_rfa(("len0", "len1", "rej(2+)", "rej(len0)", "rej(len1)"), (1, 2), (3, 4), ())
    rfas = (odd, at_least_two, nothing)

    names = []
    accepting = []
    rejecting = []
    transitions = {}
    initial = []
    offset = 0
    for tag, rfa in zip(("odd", "two", "none"), rfas):
        for i, state in enumerate(rfa.states):
            names.append(f"{tag}.{state}")
            if i in rfa.accepting:
                accepting.append(offset + i)
            if i in rfa.rejecting:
                rejecting.append(offset + i)
        for (s, sym), edges in rfa_to_prfa(rfa).transitions.items():
            transitions[(offset + s, sym)] = [(offset + t, prob) for t, prob in edges]
        initial.append((offset + rfa.start, 1.0 / 3.0))
        offset += rfa.n_states
    prfa = ProbabilisticAutomaton(
        states=tuple(names),
        alphabet=("a",),
        initial_distribution=tuple(initial),
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        transitions=transitions,
    )
    return rfas, prfa


# ---------------------------------------------------------------------------
# The DFA of the paper's example language a*b*
# ---------------------------------------------------------------------------


def astar_bstar_dfa() -> ClassicalAutomaton:
    """Minimal three-state DFA for a*b*."""
    return ClassicalAutomaton(
        states=("qa", "qb", "dead"),
        alphabet=("a", "b"),
        start=0,
        accepting=frozenset({0, 1}),
        table=np.array([[0, 1], [2, 1], [2, 2]], dtype=np.int32),
        halting_mode=END_OF_WORD,
    )


def random_prfa(seed: int, max_states: int = 5) -> ProbabilisticAutomaton:
    """Seeded random PRFA over {a, b} with at most max_states states total.

    Per (source, symbol) the targets form disjoint sets, which keeps the
    reversibility invariant by construction.
    """
    if max_states < 2:
        raise ValueError("max_states must be at least 2")
    rng = random.Random(seed)
    n_halt = rng.randint(1, 2)
    n_live = rng.randint(1, max_states - n_halt)
    names = [f"s{i}" for i in range(n_live)]
    accepting = set()
    rejecting = set()
    for h in range(n_halt):
        idx = n_live + h
        if rng.random() < 0.5:
            names.append(f"acc{h}")
            accepting.add(idx)
        else:
            names.append(f"rej{h}")
            rejecting.add(idx)
    total = len(names)
    transitions = {}
    for sym in ("a", "b", RIGHT_END):
        pool = list(range(total))
        rng.shuffle(pool)
        # cut the shuffled pool into one disjoint target set per live state
        cuts = sorted(rng.sample(range(1, total), n_live - 1)) if n_live > 1 else []
        pieces = []
        prev = 0
        for cut in cuts + [total]:
            pieces.append(pool[prev:cut])
            prev = cut
        for s, piece in enumerate(pieces):
            weights = [rng.random() + 0.05 for _ in piece]
            scale = sum(weights)
            edges = [(t, w / scale) for t, w in zip(piece, weights)]
            total_mass = sum(w for _, w in edges)
            edges[-1] = (edges[-1][0], edges[-1][1] + (1.0 - total_mass))
            transitions[(s, sym)] = edges
    start_weights = [rng.random() + 0.05 for _ in range(n_live)]
    scale = sum(start_weights)
    initial = [(s, w / scale) for s, w in enumerate(start_weights)]
    initial[-1] = (initial[-1][0], initial[-1][1] + (1.0 - sum(w for _, w in initial)))
    return ProbabilisticAutomaton(
        states=tuple(names),
        alphabet=("a", "b"),
        initial_distribution=tuple(initial),
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        transitions=transitions,
    )
