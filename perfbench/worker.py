"""One workload in one fresh process: set up, then run tasks in a closed loop.

Started by run.py with OpenBLAS pinned to one thread and ``src`` on the path.
Prints one JSON line with the setup time, the wall time of every task, the
operation counts and, in a traced run, the per-layer aggregates.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --start T --out DIR [--setup-only]

``--start`` is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared by all processes, so ``setup_s`` covers
interpreter start-up, imports, input generation and warm-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque

import checks
from tracer import Tracer, layer_report

import qfa.cli
from qfa import automata, constructions, semantics

EQUALITY = dict(n=20, n_max=60, epsilon=0.5)     # `qfa verify equality` defaults
MODP_AMPLIFIED = dict(p=31, epsilon=0.6)          # `qfa verify modp-amplified` defaults
MODP = dict(p=31)                                 # `qfa verify modp` defaults
BLOCK_M = 10          # block_dfa(10): 32 states, 20,458 after reversibilization
SWEEP_MAX_LEN = 9     # dense-small: every word over {a,b} up to this length
SCANS = 2
PERM_STATES = 7       # monoid S_7, 5,040 elements
FULL_STATES = 6       # full transformation monoid, 6^6 = 46,656 elements
BLOCK_WORDS = 90      # sample words checked against the block regex per round
INPUT_POOL = 4        # dfa-analyze rounds with distinct inputs; later rounds cycle


class OpFailed(Exception):
    """An operation raised, exited non-zero, or printed a wrong answer."""


def task_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def run_cli(argv, clock) -> str:
    """Run the CLI in process, timed on ``clock``; return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qfa.cli.main(list(argv))
    if code != 0:
        raise OpFailed(f"qfa {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_json(argv, clock):
    """Run the CLI with --json and return the parsed payload."""
    text = run_cli(list(argv) + ["--json"], clock)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OpFailed(f"qfa {' '.join(argv)} printed no JSON: {exc}") from exc


class Clock:
    """Accumulates the time spent inside ``with clock:`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t
        return False


def expect(problems):
    if problems:
        raise OpFailed("; ".join(problems[:5]))


# ---------------------------------------------------------------------------
# Workloads.  setup() generates the inputs and warms up; ops(index, clock,
# untraced) returns task ``index`` as a list of (name, callable) operations.
# Only time inside ``clock`` is task time; the checks run outside it, with
# tracing paused around the program calls they need.
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.op_s = {}      # timed seconds per operation name, summed over the run

    def run_ops(self, index, clock, untraced):
        results = []
        for name, op in self.ops(index, clock, untraced):
            before = clock.total
            try:
                op()
                results.append((name, None))
            except OpFailed as exc:
                results.append((name, str(exc)))
            except Exception:  # the program raised: a failed operation, the run goes on
                results.append((name, traceback.format_exc(limit=4)))
            self.op_s[name] = self.op_s.get(name, 0.0) + clock.total - before
        return results


class CompositeVerify(Workload):
    """One task: `qfa verify equality` and `qfa verify modp-amplified` at the CLI defaults.

    The two composites run the same runner over many tiny blocks (equality:
    94 blocks of d=2) and over a few large ones (mod-p amplified: 28 blocks of
    d=10).  The run reports each command's share of the task time, so a kernel
    change that helps one regime and costs the other shows there even when
    the task time barely moves.
    """

    def setup(self):
        cli_json(["verify", "equality", "--n", "2", "--n-max", "4"], Clock())
        cli_json(["verify", "modp-amplified", "--p", "5"], Clock())

    def ops(self, index, clock, untraced):
        k = task_seed(self.seed, index)

        def equality():
            payload = cli_json(["verify", "equality", "--seed", str(k)], clock)
            with untraced:
                p, d, seq = constructions.equality_plan(
                    EQUALITY["n"], EQUALITY["epsilon"], EQUALITY["n_max"], k)
            expect(checks.check_verify(payload, checks.equality_margins(
                EQUALITY["n"], EQUALITY["epsilon"], EQUALITY["n_max"], p, d, seq.coefficients)))

        def modp_amplified():
            payload = cli_json(["verify", "modp-amplified", "--seed", str(k)], clock)
            p, eps = MODP_AMPLIFIED["p"], MODP_AMPLIFIED["epsilon"]
            with untraced:
                d = constructions.choose_amplification(p, eps / 3.0)
                seq = constructions.find_amplified_sequence(p, eps / 3.0, d, k)
            expect(checks.check_verify(
                payload, checks.modp_margins(p, d, seq.coefficients, 1.0 - eps)))

        return [("verify equality", equality), ("verify modp-amplified", modp_amplified)]


def _monoid_size(n, letters, cap):
    identity = tuple(range(n))
    seen = {identity}
    queue = deque([identity])
    while queue and len(seen) <= cap:
        f = queue.popleft()
        for g in letters:
            h = tuple(g[f[s]] for s in range(n))
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return len(seen)


def _symmetric_generators(rng, n):
    """Two random permutations that generate all of S_n."""
    order = 1
    for i in range(2, n + 1):
        order *= i
    while True:
        letters = [tuple(rng.sample(range(n), n)) for _ in range(2)]
        if _monoid_size(n, letters, order) == order:
            return letters


def _accepting_set(rng, n):
    return set(rng.sample(range(n), rng.randint(1, n - 1)))


def permutation_dfa(rng, n=PERM_STATES):
    """Minimal n-state DFA over {a,b} whose transition monoid is S_n.

    S_n is 2-transitive, so any proper non-empty accepting set separates
    every pair of states; no state is transient, so there is no witness.
    """
    return checks.dfa_doc(n, "ab", _symmetric_generators(rng, n), _accepting_set(rng, n))


def full_transformation_dfa(rng, n=FULL_STATES):
    """Minimal n-state DFA over {a,b,c} whose monoid is all n^n maps.

    a and b generate S_n; c merges one state into another, and S_n with any
    map of rank n-1 generates the full transformation monoid.
    """
    letters = _symmetric_generators(rng, n)
    i, j = rng.sample(range(n), 2)
    merge = list(range(n))
    merge[i] = j
    letters.append(tuple(merge))
    return checks.dfa_doc(n, "abc", letters, _accepting_set(rng, n))


class DfaAnalyze(Workload):
    def setup(self):
        rng = random.Random(task_seed(self.seed, 0))
        self.inputs = []
        for i in range(INPUT_POOL):
            paths = []
            for kind, doc in (("perm", permutation_dfa(rng)), ("full", full_transformation_dfa(rng))):
                path = os.path.join(self.workdir, f"{kind}{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                paths.append((path, doc))
            words = checks.block_sample_words(rng, BLOCK_M, BLOCK_WORDS)
            self.inputs.append((paths[0], paths[1], words))
        # warm-up: the same three commands on small inputs
        small = os.path.join(self.workdir, "warm.json")
        run_cli(["build", "blocks", "--m", "2", "-o", small], Clock())
        cli_json(["analyze", small, "--reversibilize", small + ".rfa"], Clock())
        cli_json(["equiv", small, small + ".rfa"], Clock())

    def ops(self, index, clock, untraced):
        (perm_path, perm_doc), (full_path, full_doc), words = self.inputs[index % INPUT_POOL]
        blocks = os.path.join(self.workdir, "blocks.json")
        rfa = os.path.join(self.workdir, "blocks-rfa.json")

        def permutation():
            payload = cli_json(["analyze", perm_path], clock)
            expect(checks.check_permutation_analysis(perm_doc, payload))

        def transformation():
            payload = cli_json(["analyze", full_path], clock)
            expect(checks.check_witness_analysis(full_doc, payload))

        def block_family():
            run_cli(["build", "blocks", "--m", str(BLOCK_M), "-o", blocks], clock)
            analyzed = cli_json(["analyze", blocks, "--reversibilize", rfa], clock)
            equivalent = cli_json(["equiv", blocks, rfa], clock)
            with open(rfa, encoding="utf-8") as fh:
                rfa_doc = json.load(fh)
            expect(checks.check_blocks(BLOCK_M, analyzed, equivalent, rfa_doc, words))

        return [("analyze permutation dfa", permutation),
                ("analyze transformation dfa", transformation),
                ("reversibilize and equiv block_dfa", block_family)]


def sweep_words(k, words, clock):
    """random_prfa(k), its square-root QFA, and every word under the four runners."""
    with clock:
        prfa = constructions.random_prfa(k)
        qfa = automata.prfa_to_qfa(prfa)
        results = []
        for w in words:
            pr = semantics.run_prfa(prfa, w)
            many = semantics.run_measure_many(qfa, w)
            once = semantics.run_measure_once(qfa, w)
            scans = semantics.run_multiscan(qfa, w, SCANS)
            results.append((pr, many, once, scans))
    return prfa, qfa, results


def sweep_check_args(prfa, qfa, results):
    """The sweep as plain data for checks.check_sweep, words excluded."""
    plain = (list(prfa.initial_distribution), dict(prfa.transitions),
             set(prfa.accepting), set(prfa.rejecting))
    triples = [
        [[pr.p_acc, pr.p_rej, pr.p_non], [many.p_acc, many.p_rej, many.p_non],
         list(once.as_tuple()), [list(s.as_tuple()) for s in scans.per_scan]]
        for pr, many, once, scans in results
    ]
    return plain, dict(qfa.unitaries), qfa.initial, triples


class DenseSmall(Workload):
    def setup(self):
        self.words = checks.words_up_to("ab", SWEEP_MAX_LEN)
        sweep_words(task_seed(self.seed, 0), self.words[:15], Clock())
        cli_json(["verify", "modp", "--p", "5"], Clock())

    def ops(self, index, clock, untraced):
        k = task_seed(self.seed, index)

        def sweep():
            prfa, qfa, results = sweep_words(k, self.words, clock)
            expect(checks.check_sweep(*sweep_check_args(prfa, qfa, results), self.words))

        def verify_modp():
            payload = cli_json(["verify", "modp", "--seed", str(k)], clock)
            with untraced:
                seq = constructions.find_good_sequence(MODP["p"], k)
            expect(checks.check_verify(
                payload, checks.modp_margins(MODP["p"], 1, seq.coefficients, 1.0 / 8.0)))

        return [("prfa and qfa word sweep", sweep), ("verify modp", verify_modp)]


WORKLOADS = {
    "composite-verify": CompositeVerify,
    "dfa-analyze": DfaAnalyze,
    "dense-small": DenseSmall,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--start", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = os.path.join(args.out, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.start}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    untraced = tracer.paused() if tracer else contextlib.nullcontext()
    setup_s = time.monotonic() - args.start

    task_s = []
    attempted = failed = 0
    failures = []
    begin = time.perf_counter()
    while True:
        index = len(task_s)
        clock = Clock()
        if tracer is not None:
            tracer.task = index
            tracer.recording = index == 0
        for name, error in workload.run_ops(index, clock, untraced):
            attempted += 1
            if error is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append({"task": index, "op": name, "error": error})
        task_s.append(clock.total)
        # End at the task boundary nearest to --seconds, so a run of long
        # tasks neither overruns by a whole task nor stops a whole task short.
        if time.perf_counter() - begin + statistics.median(task_s) / 2 >= args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "task_s": task_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    total = sum(workload.op_s.values())
    result["op_share"] = {name: s / total for name, s in workload.op_s.items()}
    if tracer is not None:
        tracer.uninstall()
        layers = layer_report(tracer, len(task_s))
        layers["trace.task_s.p50"] = (statistics.median(task_s), "s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "task", "name", "start_s", "end_s"],
                       "dropped": tracer.dropped, "spans": tracer.spans}, fh)
        result["trace_file"] = trace_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
