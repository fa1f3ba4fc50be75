"""Per-word time of the quantum and PRFA runners, by state dimension.

    python tools/bench_runners.py [--src DIR] [--label NAME]

Times ``run_measure_many``, ``run_measure_once``, ``run_multiscan`` (2 scans),
``run_prefixes`` and ``run_prfa`` on three families:

- ``prfa``: ``prfa_to_qfa(random_prfa(seed))`` for the first seeds that give
  2, 3, 4 and 5 states, with ``run_prfa`` on the source PRFA;
- ``dense``: random dense QFAs of dimension 8, 16, 32 and 64 (unitaries from a
  complex QR, a quarter of the states accepting and a quarter rejecting);
- ``structured``: the composite automata ``modp_qfa(p)`` for p = 5, 13, 31,
  ``modp_qfa_amplified(p, 0.6)`` for p = 5, 11, 13, 31 and
  ``equality_qfa(20, 0.5, 60)``, whose symbols are block-diagonal tensor
  powers and permutations and a plane rotation.  The last two are the CLI's
  default ``verify`` targets, with 57,345 and 753 states.

The first two run every word over {a, b} up to length 9 (1,023 words, the
``dense-small`` sweep), the third every word a^0 ... a^40.

Each (automaton, runner) pair gets one warm-up pass over the first 50 words,
then 7 timed passes; the median and quartiles of the per-word time are
reported in microseconds.

For each structured automaton it also times one measure-many step on the
residue after ``^ a``, for the letter ``a`` and for the right endmarker: the
whole step (``plan.observe(psi, plan.apply[sym])``), the lowered operator alone
(``apply``) and the observation alone (``observe``: the step with an operator
that returns a ready output vector).  Each is timed as 7 passes of
``STEP_REPS`` calls after one warm-up pass, reported like the runners.

OpenBLAS is pinned to one thread before numpy is imported.  ``--src`` points
at the ``src`` directory of the checkout to time (default: this checkout), so
two versions can be measured with the same script.  The result is stored under ``--label`` in ``BENCH_runners.json`` at
the repository root; other labels already in the file are kept.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRFA_DIMS = (2, 3, 4, 5)
DENSE_DIMS = (8, 16, 32, 64)
MAX_LEN = 9
MODP_PRIMES = (5, 13, 31)
AMPLIFIED_PRIMES = (5, 11, 13, 31)
STRUCTURED_MAX_LEN = 40
SCANS = 2
WARMUP_WORDS = 50
RUNS = 7
STEP_REPS = 20
OUT = os.path.join(ROOT, "BENCH_runners.json")


def words_up_to(max_len, alphabet="ab"):
    return [w for k in range(max_len + 1) for w in itertools.product(alphabet, repeat=k)]


def structured_cases(constructions):
    cases = [(constructions.modp_qfa(p), f"modp_qfa({p})") for p in MODP_PRIMES]
    cases += [(constructions.modp_qfa_amplified(p, 0.6), f"modp_qfa_amplified({p}, 0.6)")
              for p in AMPLIFIED_PRIMES]
    cases.append((constructions.equality_qfa(20, 0.5, 60), "equality_qfa(20, 0.5, 60)"))
    return [(f"structured-{q.dim}", q.dim, source, q, None) for q, source in cases]


def prfa_cases(constructions, automata):
    """The first random_prfa seed giving each state count in PRFA_DIMS."""
    found = {}
    seed = 0
    while len(found) < len(PRFA_DIMS):
        p = constructions.random_prfa(seed)
        if p.n_states in PRFA_DIMS and p.n_states not in found:
            found[p.n_states] = (seed, p, automata.prfa_to_qfa(p))
        seed += 1
    return [(f"prfa-{n}", n, f"random_prfa({s})", q, p) for n, (s, p, q) in sorted(found.items())]


def dense_qfa(np, automata, n, seed):
    rng = np.random.default_rng(seed)
    unitaries = {}
    for sym in ("a", "b", "^", "$"):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        qm, r = np.linalg.qr(z)
        unitaries[sym] = qm * (np.diag(r) / np.abs(np.diag(r)))
    initial = np.zeros(n, dtype=complex)
    initial[n // 2] = 1.0
    return automata.QuantumAutomaton(
        states=tuple(f"s{i}" for i in range(n)),
        alphabet=("a", "b"),
        accepting=frozenset(range(n // 4)),
        rejecting=frozenset(range(n // 4, n // 2)),
        initial=initial,
        unitaries=unitaries,
    )


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info(np) -> dict:
    """The host, interpreter and numpy a result was measured with."""
    return {
        "platform": platform.platform(),
        "processor": cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def store_result(path: str, label: str, result: dict):
    """Store ``result`` under ``label`` in the JSON file at ``path``, keeping other labels."""
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc[label] = result
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def quartiles(values, unit):
    """Median and quartiles of ``values``, rounded, keyed as ``median_<unit>``
    and so on; a single value is its own median and quartiles."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {f"median_{unit}": round(median, 3), f"q1_{unit}": round(q1, 3), f"q3_{unit}": round(q3, 3)}


def time_runner(fn, words, runs):
    for w in words[:WARMUP_WORDS]:
        fn(w)
    per_word = []
    for _ in range(runs):
        t0 = time.perf_counter()
        for w in words:
            fn(w)
        per_word.append((time.perf_counter() - t0) / len(words) * 1e6)
    return quartiles(per_word, "us")


def time_call(fn, runs, reps):
    """Median and quartiles of the time of one call of ``fn``, in microseconds."""
    for _ in range(reps):
        fn()
    per_call = []
    for _ in range(runs):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps * 1e6)
    return quartiles(per_call, "us")


def time_steps(q, runs):
    """One measure-many step of ``a`` and of ``$``, split into apply and observe."""
    plan = q.plan
    # checkouts with two plan kinds step through ``ops``, later ones through ``apply``
    ops = plan.ops if hasattr(plan, "ops") else plan.apply
    psi = plan.begin()[2]
    for sym in ("^", "a"):
        psi = plan.observe(psi, ops[sym])[2]
    steps = {}
    for sym in ("a", "$"):
        op = ops[sym]
        ready = op(psi)  # observing it again costs the same
        steps[sym] = {
            "step": time_call(lambda: plan.observe(psi, op), runs, STEP_REPS),
            "apply": time_call(lambda: op(psi), runs, STEP_REPS),
            "observe": time_call(lambda: plan.observe(psi, lambda _: ready), runs, STEP_REPS),
        }
    return steps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--label", default="current")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from qfa import automata, constructions, semantics

    words = words_up_to(MAX_LEN)
    sweeps = {("a", "b"): words, ("a",): words_up_to(STRUCTURED_MAX_LEN, "a")}
    cases = prfa_cases(constructions, automata)
    cases += [(f"dense-{n}", n, f"random dense, seed {n}", dense_qfa(np, automata, n, n), None)
              for n in DENSE_DIMS]
    cases += structured_cases(constructions)

    rows = []
    step_rows = []
    for name, dim, source, q, prfa in cases:
        sweep = sweeps[tuple(q.alphabet)]
        runners = {
            "run_measure_many": lambda w: semantics.run_measure_many(q, w),
            "run_measure_once": lambda w: semantics.run_measure_once(q, w),
            "run_multiscan": lambda w: semantics.run_multiscan(q, w, SCANS),
            "run_prefixes": lambda w: semantics.run_prefixes(q, w),
        }
        if prfa is not None:
            runners["run_prfa"] = lambda w: semantics.run_prfa(prfa, w)
        timings = {r: time_runner(fn, sweep, RUNS) for r, fn in runners.items()}
        rows.append({"automaton": name, "dim": dim, "source": source, "per_word": timings})
        print(name, {r: t["median_us"] for r, t in timings.items()}, file=sys.stderr)
        if name.startswith("structured"):
            steps = time_steps(q, RUNS)
            step_rows.append({"automaton": name, "dim": dim, "source": source, "per_step": steps})
            print(name, {s: {k: t["median_us"] for k, t in p.items()} for s, p in steps.items()},
                  file=sys.stderr)

    result = {
        "machine": machine_info(np),
        "method": {
            "words": f"all {len(words)} words over {{a,b}} of length <= {MAX_LEN}",
            "structured_words": f"a^0 ... a^{STRUCTURED_MAX_LEN}",
            "warmup_words": WARMUP_WORDS,
            "runs": RUNS,
            "statistic": "median and quartiles over runs of the mean time per word, microseconds",
            "multiscan_scans": SCANS,
            "steps": f"the a and $ steps on the residue after ^ a, {RUNS} passes of {STEP_REPS} calls",
        },
        "results": rows,
        "steps": step_rows,
    }
    store_result(OUT, args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
