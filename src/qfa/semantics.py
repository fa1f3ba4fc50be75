"""Exact runners for every execution model.

``run_measure_many`` observes after every letter (the general model used
throughout), ``run_prefixes`` gives its probabilities on every prefix of a
word in one pass, without traces, ``run_measure_once`` applies a single
observation at the end, ``run_multiscan`` repeats the measure-many pass over
the tape, and ``run_prfa`` / ``run_dfa`` cover the classical machines.

The non-halting residue after the right endmarker is reported as ``p_non``
and never folded into rejection.  Residues are propagated un-renormalized,
so probabilities accumulate globally and no division by small norms occurs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

    per_scan: tuple  # RunOutcome after 1, 2, ... scans


def _working_stream(q, word):
    for sym in word:
        if sym not in q.alphabet:
            raise ValueError(f"symbol {sym!r} is not in the input alphabet {q.alphabet}")
    return (LEFT_END,) + tuple(word) + (RIGHT_END,)


def _measure_many(q: QuantumAutomaton, stream):
    """Yield the cumulative (p_acc, p_rej) and the residue after each symbol.

    The initial vector is observed once before the first symbol, so mass it
    puts on halting states counts at once, as in ``run_prfa``.  Each step
    goes through the automaton's plan (``QuantumAutomaton.plan``).
    """
    observe, ops = q.plan.observe, q.plan.apply
    p_acc, p_rej, psi = q.plan.begin()
    for sym in stream:
        d_acc, d_rej, psi = observe(psi, ops[sym])
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
    for p_acc, p_rej, psi in _measure_many(q, _working_stream(q, word)):
        trace.append((p_acc, p_rej))
    return RunOutcome(p_acc=p_acc, p_rej=p_rej, p_non=linalg.norm_squared(psi), trace=tuple(trace))


def run_prefixes(q: QuantumAutomaton, word) -> list:
    """Measure-many outcome of every prefix of ``word`` in one pass.

    Entry j has the probabilities of ``run_measure_many(q, word[:j])``, bit
    for bit, and an empty trace: the residue after ^ word[:j] is shared by
    all longer prefixes, and the right endmarker is applied to it once per
    prefix, so time and memory are linear in the word.
    """
    observe, end = q.plan.observe, q.plan.apply[RIGHT_END]
    outcomes = []
    for p_acc, p_rej, psi in _measure_many(q, _working_stream(q, word)[:-1]):
        e_acc, e_rej, rest = observe(psi, end)
        p_non = linalg.norm_squared(rest)
        del rest  # one state vector fewer alive during the next step
        outcomes.append(RunOutcome(p_acc + e_acc, p_rej + e_rej, p_non))
    return outcomes


def run_measure_once(q: QuantumAutomaton, word) -> RunOutcome:
    """Apply all unitaries without intermediate observation, then measure once."""
    plan = q.plan
    psi = plan.initial()
    for sym in _working_stream(q, word):
        psi = plan.apply[sym](psi)
    return RunOutcome(*(linalg.norm_squared(psi[part]) for part in (plan.acc, plan.rej, plan.non)))


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
    scans = itertools.chain.from_iterable(itertools.repeat(stream, max_scans))
    for i, (p_acc, p_rej, psi) in enumerate(_measure_many(q, scans), start=1):
        if i % len(stream) == 0:
            reports.append(RunOutcome(p_acc, p_rej, linalg.norm_squared(psi)))
    return ScanReport(per_scan=tuple(reports))


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
    rows = p.rows
    trace = []
    for sym in stream:
        nxt = {}
        for s, mass in dist.items():
            for t, prob in rows[(s, sym)]:
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


def run_dfa(c: ClassicalAutomaton, word) -> bool:
    """End-of-word acceptance in plain mode, halt-on-enter in RFA mode.

    One loop serves both: a plain DFA reads the word and has no halting
    states, while an RFA reads ^ word $ and stops on entering a halting
    state.  An RFA run that never halts ends on a live state, which is not
    accepting, so it counts as not accepted.  The walk reads ``c.table``;
    a missing transition on the way raises ValueError.
    """
    stream = _working_stream(c, word)
    if c.halting_mode != HALT_ON_ENTER:
        stream = stream[1:-1]
    halting, table = c.halting, c.table
    column = {a: k for k, a in enumerate(c.symbols)}
    state = c.start
    for sym in stream:
        if state in halting:
            break
        target = int(table[state, column[sym]])
        if target < 0:
            raise ValueError(f"no transition from {c.states[state]} on {sym!r}")
        state = target
    return state in c.accepting
