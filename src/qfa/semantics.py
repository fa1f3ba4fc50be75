"""Exact runners for every execution model.

``run_measure_many`` observes after every letter (the general model used
throughout), ``run_prefixes`` gives its outcome on every prefix of a word in
one pass, ``run_measure_once`` applies a single observation at the end,
``run_multiscan`` repeats the measure-many pass over the tape, and
``run_prfa`` / ``run_dfa`` cover the classical machines.

The non-halting residue after the right endmarker is reported as ``p_non``
and never folded into rejection.  Residues are propagated un-renormalized,
so probabilities accumulate globally and no division by small norms occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .automata import (
    HALT_ON_ENTER,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
    RunOutcome,
)


@dataclass(frozen=True)
class ScanReport:
    """Cumulative outcome after each full scan of the tape."""

    per_scan: tuple  # OutcomeDistribution after 1, 2, ... scans
    scans_executed: int


def _working_stream(q, word):
    for sym in word:
        if sym not in q.alphabet:
            raise ValueError(f"symbol {sym!r} is not in the input alphabet {q.alphabet}")
    return (LEFT_END,) + tuple(word) + (RIGHT_END,)


def _halting_indices(q: QuantumAutomaton):
    return (
        np.array(sorted(q.accepting), dtype=np.intp),
        np.array(sorted(q.rejecting), dtype=np.intp),
    )


def _observe(psi, acc_idx, rej_idx):
    """Measure once: accept and reject probabilities and the un-renormalized residue.

    ``psi`` must be a vector no one else holds; its halting amplitudes are
    zeroed in place.
    """
    d_acc = float(np.sum(np.abs(psi[acc_idx]) ** 2))
    d_rej = float(np.sum(np.abs(psi[rej_idx]) ** 2))
    psi[acc_idx] = 0.0
    psi[rej_idx] = 0.0
    return d_acc, d_rej, psi


def _measure_many(q: QuantumAutomaton, stream, halting):
    """Yield the cumulative (p_acc, p_rej) and the residue after each symbol.

    The initial vector is observed once before the first symbol, so mass it
    puts on halting states counts at once, as in ``run_prfa``.
    """
    acc_idx, rej_idx = halting
    p_acc, p_rej, psi = _observe(q.initial.copy(), acc_idx, rej_idx)
    for sym in stream:
        d_acc, d_rej, psi = _observe(linalg.apply(q.unitaries[sym], psi), acc_idx, rej_idx)
        p_acc += d_acc
        p_rej += d_rej
        yield p_acc, p_rej, psi


def run_measure_many(q: QuantumAutomaton, word) -> RunOutcome:
    """Apply each symbol's unitary and observe after every step.

    The squared norms of the accepting/rejecting projections accumulate; the
    un-renormalized non-halting projection continues.  ``p_non`` is the
    squared norm of the residue after the right endmarker.
    """
    trace = []
    for p_acc, p_rej, psi in _measure_many(q, _working_stream(q, word), _halting_indices(q)):
        trace.append((p_acc, p_rej))
    return RunOutcome(p_acc=p_acc, p_rej=p_rej, p_non=linalg.norm_squared(psi), trace=tuple(trace))


def run_prefixes(q: QuantumAutomaton, word) -> list:
    """Measure-many outcome of every prefix of ``word`` in one pass.

    Entry j equals ``run_measure_many(q, word[:j])``, trace included: the
    residue after ^ word[:j] is shared by all longer prefixes, and the right
    endmarker is applied to it once per prefix.
    """
    halting = _halting_indices(q)
    end = q.unitaries[RIGHT_END]
    trace = []
    outcomes = []
    for p_acc, p_rej, psi in _measure_many(q, _working_stream(q, word)[:-1], halting):
        trace.append((p_acc, p_rej))
        e_acc, e_rej, rest = _observe(linalg.apply(end, psi), *halting)
        p_non = linalg.norm_squared(rest)
        del rest  # one state vector fewer alive during the next step
        final = (p_acc + e_acc, p_rej + e_rej)
        outcomes.append(
            RunOutcome(p_acc=final[0], p_rej=final[1], p_non=p_non, trace=tuple(trace) + (final,))
        )
    return outcomes


def run_measure_once(q: QuantumAutomaton, word) -> linalg.OutcomeDistribution:
    """Apply all unitaries without intermediate observation, then measure once."""
    psi = q.initial
    for sym in _working_stream(q, word):
        psi = linalg.apply(q.unitaries[sym], psi)
    return linalg.measure(psi, q.accepting, q.rejecting).distribution


def run_multiscan(q: QuantumAutomaton, word, max_scans: int) -> ScanReport:
    """Measure-many semantics with the tape re-scanned up to max_scans times.

    Both endmarkers are re-read on every scan and the non-halting residue is
    carried across scans.  Scan k's entry holds the cumulative accumulators
    after k full scans.
    """
    if max_scans < 1:
        raise ValueError("max_scans must be at least 1")
    stream = _working_stream(q, word)
    reports = []
    steps = _measure_many(q, stream * max_scans, _halting_indices(q))
    for i, (p_acc, p_rej, psi) in enumerate(steps, start=1):
        if i % len(stream) == 0:
            reports.append(linalg.OutcomeDistribution(p_acc, p_rej, linalg.norm_squared(psi)))
    return ScanReport(per_scan=tuple(reports), scans_executed=max_scans)


def run_prfa(p: ProbabilisticAutomaton, word) -> RunOutcome:
    """Exact forward propagation of the state distribution of a PRFA.

    Mass entering an accepting or rejecting state accumulates and leaves the
    distribution (halt-on-enter semantics).  A missing (state, symbol) entry
    means the state keeps its mass, which lets automata omit a left-endmarker
    row exactly like QFAs do.
    """
    stream = _working_stream(p, word)
    dist = {}
    p_acc = 0.0
    p_rej = 0.0
    for s, prob in p.initial_distribution:
        if prob == 0.0:
            continue
        if s in p.accepting:
            p_acc += prob
        elif s in p.rejecting:
            p_rej += prob
        else:
            dist[s] = dist.get(s, 0.0) + prob
    trace = []
    for sym in stream:
        nxt = {}
        for s, mass in dist.items():
            edges = p.transitions.get((s, sym), ((s, 1.0),))
            for t, prob in edges:
                if prob == 0.0:
                    continue
                nxt[t] = nxt.get(t, 0.0) + mass * prob
        dist = {}
        for t, mass in nxt.items():
            if t in p.accepting:
                p_acc += mass
            elif t in p.rejecting:
                p_rej += mass
            else:
                dist[t] = mass
        trace.append((p_acc, p_rej))
    return RunOutcome(p_acc=p_acc, p_rej=p_rej, p_non=sum(dist.values()), trace=tuple(trace))


def sample_prfa(p: ProbabilisticAutomaton, word, n_samples: int, seed: int = 0):
    """Monte-Carlo frequencies of a PRFA run (sanity companion to run_prfa)."""
    rng = np.random.default_rng(seed)

    def pick(edges, u):
        acc = 0.0
        for t, prob in edges:
            acc += prob
            if u < acc:
                return t
        return edges[-1][0]

    counts = {"acc": 0, "rej": 0, "non": 0}
    stream = (LEFT_END,) + tuple(word) + (RIGHT_END,)
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
                edges = p.transitions.get((state, sym), ((state, 1.0),))
                state = pick(edges, rng.random())
                if state in p.accepting:
                    verdict = "acc"
                    break
                if state in p.rejecting:
                    verdict = "rej"
                    break
        counts[verdict or "non"] += 1
    return {k: v / n_samples for k, v in counts.items()}


def run_dfa(c: ClassicalAutomaton, word) -> bool:
    """End-of-word acceptance in plain mode, halt-on-enter in RFA mode.

    A halt-on-enter run that never reaches a halting state counts as not
    accepted.
    """
    stream = _working_stream(c, word)
    state = c.start
    if c.halting_mode == HALT_ON_ENTER:
        if state in c.accepting:
            return True
        if state in c.rejecting:
            return False
        for sym in stream:
            state = c.transitions[(state, sym)]
            if state in c.accepting:
                return True
            if state in c.rejecting:
                return False
        return False
    for sym in word:
        state = c.transitions[(state, sym)]
    return state in c.accepting
