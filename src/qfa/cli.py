"""Command-line surface: run, analyze, build, verify, equiv, dist.

Exit codes: 0 success or verification pass, 1 verification failure, 2 input
or parse error (an unreadable input or unwritable output file included), 3
capacity error; ``main`` alone maps exceptions to these codes.  All commands
are deterministic given the same arguments and --seed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys

from . import analysis, constructions, semantics, serialize
from .automata import (
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
    prfa_to_qfa,
    validate,
    validate_classical,
    validate_prfa,
)
from .linalg import CapacityError, tv_distance

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT_ERROR):
        super().__init__(message)
        self.code = code


def _load(path, tolerance):
    try:
        auto = serialize.load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # FileFormatError, or a value the constructors reject
        raise CliError(f"{path}: {exc}") from exc
    if isinstance(auto, QuantumAutomaton):
        problems = validate(auto, tolerance)
    elif isinstance(auto, ClassicalAutomaton):
        problems = validate_classical(auto)
    else:
        problems = validate_prfa(auto)
    if problems:
        raise CliError(f"{path} failed validation: " + "; ".join(problems))
    return auto


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _fmt(x: float) -> str:
    return f"{x:.12f}"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    auto = _load(args.file, args.tolerance)
    word = tuple(args.word) if args.word not in ("", "-") else ()
    if isinstance(auto, ClassicalAutomaton):
        accepted = semantics.run_dfa(auto, word)
        _emit(args, {"accepted": accepted}, [f"accepted={'1' if accepted else '0'}"])
        return EXIT_OK
    payload, rows = {}, []
    if isinstance(auto, ProbabilisticAutomaton):
        out = semantics.run_prfa(auto, word)
    elif args.mode == "many":
        out = semantics.run_measure_many(auto, word)
    elif args.mode == "once":
        out = semantics.run_measure_once(auto, word)
    else:
        scans = semantics.run_multiscan(auto, word, args.scans).per_scan
        out = scans[-1]
        payload["scans"] = [{"p_acc": d.p_acc, "p_rej": d.p_rej, "p_non": d.p_non} for d in scans]
        rows = [("scan", d.p_acc, d.p_rej) for d in scans]
    if out.trace:
        rows = [("step", a, r) for a, r in out.trace]
        if args.trace:
            payload["trace"] = [{"p_acc": a, "p_rej": r} for a, r in out.trace]
    payload.update(p_acc=out.p_acc, p_rej=out.p_rej, p_non=out.p_non)
    lines = [f"{key}={_fmt(payload[key])}" for key in ("p_acc", "p_rej", "p_non")]
    if args.trace:
        for i, (kind, a, r) in enumerate(rows, start=1):
            lines.append(f"{kind} {i}: p_acc={_fmt(a)} p_rej={_fmt(r)}")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _witness_payload(w):
    if w is None:
        return None
    out = {"q1": w.q1, "q2": w.q2, "x": "".join(w.x)}
    if w.y is not None:
        out["y"] = "".join(w.y)
    return out


def cmd_analyze(args) -> int:
    auto = _load(args.file, args.tolerance)
    if not isinstance(auto, ClassicalAutomaton) or auto.halting_mode != "end-of-word":
        raise CliError("analyze expects a plain DFA file")
    minimal = analysis.minimize_dfa(auto)
    single = analysis.find_forbidden_construction(minimal)
    double = analysis.find_prfa_forbidden_construction(minimal, cap=args.monoid_cap)
    reversible, tuples = analysis.is_reversible(minimal)

    payload = {
        "minimal_states": minimal.n_states,
        "forbidden_construction": _witness_payload(single),
        "prfa_forbidden_construction": _witness_payload(double),
        "reversible": reversible,
    }
    lines = [f"minimal states: {minimal.n_states}"]
    for key in ("forbidden_construction", "prfa_forbidden_construction"):
        w = payload[key] or {}  # states bare, words quoted: q1=m0 q2=m1 x='a' y='b'
        text = " ".join(f"{k}={v!r}" if k in ("x", "y") else f"{k}={v}" for k, v in w.items())
        lines.append(f"{key.replace('_', ' ')}: {text or 'absent'}")
    lines.append(f"reversible: {'yes' if reversible else 'no'}")
    if not reversible and not args.json:
        q1, q2, q, a = tuples[0]
        lines.append(f"  e.g. {q1} and {q2} both reach {q} on {a!r}")

    if args.reversibilize:
        try:
            rfa = analysis.reversibilize(minimal)
        except analysis.NotReversibilizableError as exc:
            raise CliError(str(exc), code=EXIT_VERIFY_FAILED) from exc
        serialize.save(rfa, args.reversibilize)
        payload["reversibilized_states"] = rfa.n_states
        payload["reversibilized_file"] = args.reversibilize
        lines.append(f"reversibilized: {rfa.n_states} states -> {args.reversibilize}")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# build / verify targets
# ---------------------------------------------------------------------------


def _resolve_epsilon(args):
    if args.epsilon is not None:
        return args.epsilon
    return 0.6 if args.target == "modp-amplified" else 0.5


def _build_example(args):
    return constructions.example_qfa(), {}


def _verify_example(args):
    out = semantics.run_measure_many(constructions.example_qfa(), "aa")
    margin = min(1e-12 - abs(out.p_acc - 0.25), 1e-12 - abs(out.p_rej - 0.75))
    return [("worked example on aa", margin)]


def _build_astarbstar(args):
    p = constructions.solve_success_probability()
    return constructions.astar_bstar_qfa(), {"success_probability": p, "residual": abs(p**3 + p - 1.0)}


def _verify_astarbstar(args):
    auto = constructions.astar_bstar_qfa()
    p = constructions.solve_success_probability()
    inside = outside = float("inf")
    for length in range(7):
        for word in map("".join, itertools.product("ab", repeat=length)):
            out = semantics.run_measure_many(auto, word)
            if re.fullmatch("a*b*", word):
                inside = min(inside, 1e-9 - abs(out.p_acc - p))
            else:
                outside = min(outside, out.p_rej - (p - 1e-9))
    return [
        ("a*b* words accept with probability p", inside),
        ("words outside a*b* reject with probability >= p", outside),
    ]


def _build_modp(args):
    auto = constructions.modp_qfa(args.p, args.seed)
    return auto, {
        "blocks": constructions.good_sequence_length(args.p),
        "non_halting_states": len(auto.non_halting),
    }


def _build_modp_amplified(args):
    epsilon = _resolve_epsilon(args)
    auto = constructions.modp_qfa_amplified(args.p, epsilon, args.seed)
    return auto, {
        "blocks": constructions.good_sequence_length(args.p),
        "tensor_power": constructions.choose_amplification(args.p, epsilon / 3.0),
        "non_halting_states": len(auto.non_halting),
    }


def _modp_margins(auto, p, bound, bound_label):
    outs = semantics.run_prefixes(auto, "a" * (2 * p))
    reject = min(outs[j].p_rej - (bound - 1e-9) for j in range(1, p))
    accept = min(1e-9 - abs(outs[mult].p_acc - 1.0) for mult in (p, 2 * p))
    return [
        (f"non-multiples rejected with probability >= {bound_label}", reject),
        ("multiples accepted with probability 1", accept),
    ]


def _verify_modp(args):
    return _modp_margins(constructions.modp_qfa(args.p, args.seed), args.p, 1.0 / 8.0, "1/8")


def _verify_modp_amplified(args):
    epsilon = _resolve_epsilon(args)
    auto = constructions.modp_qfa_amplified(args.p, epsilon, args.seed)
    return _modp_margins(auto, args.p, 1.0 - epsilon, 1.0 - epsilon)


def _build_equality(args):
    epsilon = _resolve_epsilon(args)
    prime, d, sequence = constructions.equality_plan(args.n, epsilon, args.n_max, args.seed)
    auto = constructions.equality_qfa(args.n, epsilon, args.n_max, args.seed)
    return auto, {
        "prime": prime,
        "blocks": sequence.length,
        "tensor_power": d,
        "non_halting_states": len(auto.non_halting),
    }


def _verify_equality(args):
    n, epsilon = args.n, _resolve_epsilon(args)
    auto = constructions.equality_qfa(n, epsilon, args.n_max, args.seed)
    accept = None
    reject = float("inf")
    for length, out in enumerate(semantics.run_prefixes(auto, "a" * args.n_max)):
        if length == n:
            accept = 1e-9 - abs(out.p_acc - 1.0)
        else:
            reject = min(reject, out.p_rej - (1.0 - epsilon))
    return [
        (f"a^{n} accepted with probability 1", accept),
        (f"other lengths rejected with probability >= {1.0 - epsilon}", reject),
    ]


def _build_blocks(args):
    auto = constructions.block_dfa(args.m)
    return auto, {"states": auto.n_states}


def _verify_blocks(args):
    m = args.m
    dfa = constructions.block_dfa(m)
    minimal = analysis.minimize_dfa(dfa)
    rfa = analysis.reversibilize(minimal)
    same, counter = analysis.dfa_equivalent(dfa, rfa)
    bound = 3 * (2**m - 1)
    return [
        (f"dfa has 3m+2 = {3 * m + 2} states", float(minimal.n_states == 3 * m + 2) - 0.5),
        ("reversibilized automaton is language-equivalent", float(same) - 0.5),
        (f"reversibilized automaton has >= {bound} states", float(rfa.n_states - bound)),
    ]


def _build_prfa_trio(args):
    _, prfa = constructions.parity_prfa_trio()
    return prfa, {"states": prfa.n_states}


def _verify_prfa_trio(args):
    _, prfa = constructions.parity_prfa_trio()
    qfa = prfa_to_qfa(prfa)
    margin = float("inf")
    chain = float("inf")
    for j, qout in enumerate(semantics.run_prefixes(qfa, "a" * 40)):
        out = semantics.run_prfa(prfa, "a" * j)
        member = j >= 3 and j % 2 == 1
        correct = out.p_acc if member else out.p_rej
        margin = min(margin, correct - (2.0 / 3.0 - 1e-9))
        chain = min(chain, 1e-9 - abs(qout.p_acc - out.p_acc))
        chain = min(chain, 1e-9 - abs(qout.p_rej - out.p_rej))
    return [
        ("majority bundle decides odd lengths >= 3 with probability 2/3", margin),
        ("square-root embedding matches the bundle on lengths 0..40", chain),
    ]


# target name -> (build, verify); each reads its parameters from the parsed args
_TARGETS = {
    "example": (_build_example, _verify_example),
    "astarbstar": (_build_astarbstar, _verify_astarbstar),
    "modp": (_build_modp, _verify_modp),
    "modp-amplified": (_build_modp_amplified, _verify_modp_amplified),
    "equality": (_build_equality, _verify_equality),
    "blocks": (_build_blocks, _verify_blocks),
    "prfa-trio": (_build_prfa_trio, _verify_prfa_trio),
}


def cmd_build(args) -> int:
    build, _ = _TARGETS[args.target]
    auto, info = build(args)
    serialize.save(auto, args.out)
    info["file"] = args.out
    if isinstance(auto, QuantumAutomaton):
        info.setdefault("states", auto.dim)
    lines = [f"{k}: {v}" for k, v in info.items()]
    _emit(args, info, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    _, verify = _TARGETS[args.target]
    checks = verify(args)
    ok = all(margin >= 0 for _, margin in checks)
    payload = {
        "target": args.target,
        "pass": ok,
        "checks": [{"name": name, "margin": margin} for name, margin in checks],
    }
    lines = []
    for name, margin in checks:
        lines.append(f"{'PASS' if margin >= 0 else 'FAIL'} {name} (margin {margin:.3e})")
    lines.append("result: " + ("pass" if ok else "fail"))
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# equiv / dist
# ---------------------------------------------------------------------------


def cmd_equiv(args) -> int:
    a = _load(args.file1, args.tolerance)
    b = _load(args.file2, args.tolerance)
    if not isinstance(a, ClassicalAutomaton) or not isinstance(b, ClassicalAutomaton):
        raise CliError("equiv expects two deterministic automaton files")
    same, counter = analysis.dfa_equivalent(a, b)
    payload = {"equivalent": same}
    lines = [f"equivalent: {'yes' if same else 'no'}"]
    if not same:
        payload["counterexample"] = "".join(counter)
        lines.append(f"counterexample: {''.join(counter)!r}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_dist(args) -> int:
    auto = _load(args.file, args.tolerance)
    if not isinstance(auto, QuantumAutomaton):
        raise CliError("dist expects a qfa file")
    run = semantics.run_measure_once if args.mode == "once" else semantics.run_measure_many
    dist = tv_distance(run(auto, tuple(args.word1)), run(auto, tuple(args.word2)))
    _emit(args, {"tv_distance": dist}, [f"tv_distance={_fmt(dist)}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` call in the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=1e-9, help="validation tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("target", choices=_TARGETS)
    target.add_argument("--p", type=int, default=31, help="prime modulus")
    target.add_argument("--epsilon", type=float, default=None,
                        help="error bound (default 0.6 for modp-amplified, 0.5 for equality)")
    target.add_argument("--n", type=int, default=20)
    target.add_argument("--n-max", type=int, default=60)
    target.add_argument("--m", type=int, default=2)

    parser = argparse.ArgumentParser(
        prog="qfa",
        description="Simulate and analyze 1-way quantum finite automata and their classical counterparts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run an automaton file on a word")
    p_run.add_argument("file")
    p_run.add_argument("word", help="input word (may be empty: '')")
    p_run.add_argument("--mode", choices=("many", "once", "scans"), default="many")
    p_run.add_argument("--scans", type=int, default=1)
    p_run.add_argument("--trace", action="store_true", help="print the per-step halting trace")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", parents=[common], help="minimal-automaton structure report")
    p_an.add_argument("file")
    p_an.add_argument("--monoid-cap", type=int, default=analysis.DEFAULT_MONOID_CAP)
    p_an.add_argument("--reversibilize", metavar="OUT", help="write the reversibilized automaton here")
    p_an.set_defaults(func=cmd_analyze)

    p_build = sub.add_parser("build", parents=[common, target], help="generate a built-in automaton")
    p_build.add_argument("-o", "--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", parents=[common, target], help="check a construction's bounds")
    p_verify.set_defaults(func=cmd_verify)

    p_eq = sub.add_parser("equiv", parents=[common], help="language equivalence of two DFAs")
    p_eq.add_argument("file1")
    p_eq.add_argument("file2")
    p_eq.set_defaults(func=cmd_equiv)

    p_dist = sub.add_parser("dist", parents=[common], help="variational distance of two run outcomes")
    p_dist.add_argument("file")
    p_dist.add_argument("word1")
    p_dist.add_argument("word2")
    p_dist.add_argument("--mode", choices=("many", "once"), default="many")
    p_dist.set_defaults(func=cmd_dist)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
