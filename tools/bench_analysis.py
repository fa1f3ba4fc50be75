"""Time the analysis layers: minimization, the two detectors,
reversibilization, the RFA file and the equivalence check.

    python tools/bench_analysis.py [--src DIR] [--label NAME]

Times ``find_prfa_forbidden_construction``, which enumerates the transition
monoid and scans it as ``qfa analyze`` does, on two DFAs generated without
randomness: S_7 on a transposition and a 7-cycle (5,040 elements, no
witness), and the full transformation monoid of 6 states, from the same two
permutations and a letter merging state 0 into state 1 (46,656 elements).
On those two DFAs and on ``block_dfa(m)`` for m = 8 ... 12, each saved to a
file first, times the first two phases of ``qfa analyze``: ``minimize_dfa``
on the DFA freshly loaded per call, and ``find_forbidden_construction`` on
the minimal DFA of a fresh load per call (the load and the minimization are
not timed).  So whatever a phase builds on a loaded automaton, such as a
transition dict, is timed with it, and no call finds the merge table cached.
For m = 8 ... 12, on the RFA ``rfa = reversibilize(minimize_dfa(block_dfa(m)))``,
reports the number of reversibilization rounds (where the checkout has
``analysis._split_rounds``) and the peak live state count, which is the
RFA's states less its right-endmarker sinks, since the live count only
grows from round to round; and times:

- ``reversibilize`` itself; the minimal DFA is built once per m, untimed;
- ``serialize.save(rfa)``, each call on a fresh copy of the automaton, so
  whatever it builds and caches on first use is timed too;
- ``serialize.load`` of that file;
- ``validate_classical``, ``dfa_equivalent(block_dfa(m), rfa)``, and the two
  in a row as ``qfa equiv`` runs them, each call on an RFA freshly loaded
  from the file (the load is not timed);
- ``run_dfa(rfa, "xy" * m)``, the first run on an RFA freshly loaded from
  the file (the load is not timed), as ``qfa run`` makes it.

Each timing gets one warm-up call, then 7 timed calls; the median and
quartiles are reported in milliseconds, with the number of RFA states.
OpenBLAS is pinned to one thread before numpy is imported.  ``--src`` points
at the ``src`` directory of the checkout to time (default: this checkout),
so two versions can be measured with the same script.  The result is stored
under ``--label`` in ``BENCH_analysis.json`` at the repository root; other
labels already in the file are kept.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
import time

from bench_runners import ROOT, machine_info, quartiles, store_result

BLOCK_SIZES = range(8, 13)
RUNS = 7
OUT = os.path.join(ROOT, "BENCH_analysis.json")


def generated_dfa(n: int, merge: bool):
    """n states over a transposition, an n-cycle and, with ``merge``, 0 -> 1.

    The two permutations generate S_n; with a map of rank n - 1 they generate
    all n^n maps.  Accepting {0} separates every pair of states, so the DFA
    is minimal.  Built from its transition table.
    """
    import numpy as np
    from qfa.automata import ClassicalAutomaton  # from the checkout that --src names

    letters = [(1, 0) + tuple(range(2, n)), tuple((s + 1) % n for s in range(n))]
    if merge:
        letters.append((1,) + tuple(range(1, n)))
    table = np.array(letters, dtype=np.int32).T  # column k is letter k's map
    fields = dict(
        states=tuple(f"s{i}" for i in range(n)), alphabet=tuple("abc"[: len(letters)]), start=0,
        accepting=frozenset({0}),
    )
    if hasattr(ClassicalAutomaton, "from_table"):  # checkouts where the table was not a field
        return ClassicalAutomaton.from_table(table, **fields)
    return ClassicalAutomaton(table=table, **fields)


def time_call(fn, runs, setup=lambda: None):
    """Median and quartiles of ``runs`` timed calls after one warm-up, and the last result.

    Each call is ``fn(setup())``; ``setup`` is not timed.
    """
    result = fn(setup())
    times = []
    for _ in range(runs):
        arg = setup()
        t0 = time.perf_counter()
        result = fn(arg)
        times.append((time.perf_counter() - t0) * 1e3)
    return quartiles(times, "ms"), result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--label", default="current")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from qfa import analysis, constructions, semantics, serialize
    from qfa.automata import validate_classical

    def first_phases(dfa, path):
        """Timings of ``minimize_dfa`` and ``find_forbidden_construction`` on ``dfa`` saved at ``path``."""
        serialize.save(dfa, path)
        out = {}
        out["minimize_dfa"], _ = time_call(analysis.minimize_dfa, RUNS, lambda: serialize.load(path))
        out["find_forbidden_construction"], _ = time_call(
            analysis.find_forbidden_construction, RUNS, lambda: analysis.minimize_dfa(serialize.load(path))
        )
        return out

    monoids, rows = [], []
    with tempfile.TemporaryDirectory() as tmp:
        dfa_path = os.path.join(tmp, "dfa.json")
        for name, n, merge in (("S7", 7, False), ("full-transformation-6", 6, True)):
            dfa = generated_dfa(n, merge)
            elements = len(analysis._monoid(dfa, analysis.DEFAULT_MONOID_CAP)[0])  # untimed
            detector, _ = time_call(lambda _: analysis.find_prfa_forbidden_construction(dfa), RUNS)
            monoids.append({
                "dfa": name, "elements": elements, "find_prfa_forbidden_construction": detector,
                **first_phases(dfa, dfa_path),
            })
            print(name, elements, *(monoids[-1][k]["median_ms"] for k in (
                "find_prfa_forbidden_construction", "minimize_dfa", "find_forbidden_construction",
            )), file=sys.stderr)

        path = os.path.join(tmp, "rfa.json")
        for m in BLOCK_SIZES:
            dfa = constructions.block_dfa(m)
            minimal = analysis.minimize_dfa(dfa)
            row = {"m": m, **first_phases(dfa, dfa_path)}
            row["reversibilize"], rfa = time_call(lambda _: analysis.reversibilize(minimal), RUNS)
            row["rfa_states"] = rfa.n_states
            row["peak_live_states"] = rfa.n_states - int(np.count_nonzero(rfa.table[:, -1] >= 0))
            if hasattr(analysis, "_split_rounds"):
                row["rounds"] = analysis._split_rounds(minimal)[4]
            row["save"], _ = time_call(lambda r: serialize.save(r, path), RUNS, lambda: dataclasses.replace(rfa))
            row["file_bytes"] = os.path.getsize(path)
            row["load"], _ = time_call(lambda _: serialize.load(path), RUNS)

            def fresh():
                return serialize.load(path)

            row["validate_classical"], problems = time_call(validate_classical, RUNS, fresh)
            row["dfa_equivalent"], (same, _) = time_call(lambda r: analysis.dfa_equivalent(dfa, r), RUNS, fresh)
            assert problems == [] and same, f"block_dfa({m}) and its RFA differ"
            row["validate_and_equivalent"], _ = time_call(
                lambda r: (validate_classical(r), analysis.dfa_equivalent(dfa, r)), RUNS, fresh
            )
            row["run_dfa"], accepted = time_call(lambda r: semantics.run_dfa(r, "xy" * m), RUNS, fresh)
            assert accepted, f"the RFA of block_dfa({m}) rejects (xy)^{m}"
            rows.append(row)
            print(f"m={m}", rfa.n_states, row["peak_live_states"], row.get("rounds"), *(row[k]["median_ms"] for k in (
                "minimize_dfa", "find_forbidden_construction", "reversibilize", "save", "load",
                "validate_classical", "dfa_equivalent", "validate_and_equivalent", "run_dfa",
            )), file=sys.stderr)

    store_result(OUT, args.label, {
        "machine": machine_info(np),
        "method": {
            "monoid_automata": "S_7 on a transposition and a 7-cycle; the full transformation "
                               "monoid of 6 states from the same permutations and a merge 0 -> 1",
            "automata": f"block_dfa(m) for m = {BLOCK_SIZES.start}..{BLOCK_SIZES.stop - 1}",
            "minimize_dfa": "minimize_dfa(dfa) on the DFA saved to a file and freshly loaded per call "
                            "(the load is not timed); for the two monoid DFAs and block_dfa(m)",
            "find_forbidden_construction": "find_forbidden_construction(minimal) on minimize_dfa of a "
                                           "fresh load per call (neither is timed)",
            "reversibilize": "reversibilize(minimize_dfa(block_dfa(m))), minimization not timed",
            "rounds": "reversibilization rounds, from analysis._split_rounds (absent in older checkouts)",
            "peak_live_states": "live states after the last round: RFA states less right-endmarker sinks",
            "save": "serialize.save(rfa, path) on a fresh copy of rfa per call (nothing cached)",
            "load": "serialize.load(path)",
            "validate_classical": "validate_classical(rfa) on an rfa freshly loaded per call",
            "dfa_equivalent": "dfa_equivalent(block_dfa(m), rfa) on an rfa freshly loaded per call",
            "validate_and_equivalent": "validate_classical(rfa) then dfa_equivalent(block_dfa(m), rfa), "
                                       "as qfa equiv runs them, on an rfa freshly loaded per call",
            "run_dfa": "run_dfa(rfa, 'xy' * m), the first run on an rfa freshly loaded per call",
            "warmup_calls": 1,
            "runs": RUNS,
            "statistic": "median and quartiles over runs of one call, milliseconds",
        },
        "monoids": monoids,
        "results": rows,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
